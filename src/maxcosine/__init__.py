"""MaxCosine-LSTM: textual entailment via max-cosine word matching and an LSTM encoder."""

__version__ = "0.1.0"

from .data import SentencePair, tokenize, load_snli
from .embeddings import (
    EmbeddingLibrary,
    concat_libraries,
    embed_sentence,
    load_text_format,
    load_binary_format,
)
from .matching import match_indices
from .model import Model, ModelConfig, init_model, forward, decide
from .training import TrainConfig, train, evaluate, cross_entropy
from .ensemble import Ensemble, train_ensemble, predict_ensemble
