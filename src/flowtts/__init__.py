"""Desk-scale tokenizer-free speech-latent generator with flow matching.

A hierarchical autoregressive model over continuous latent patches: a causal
semantic transformer plans content from text plus acoustic context, a scalar
lattice quantizer with straight-through gradients produces a semi-discrete
skeleton, a residual transformer restores detail the bottleneck discards, and
a small bidirectional flow-matching transformer decodes each patch with
classifier-free guidance.  Includes the full training pipeline on a synthetic
latent oracle, plus Thai-aware text normalization, character-error-rate,
speaker-similarity, and pairwise-judgment evaluation utilities.
"""

from .autodiff import (
    RecordError,
    RngHub,
    ShapeError,
    Tape,
    Tensor,
    constant,
    grad_check,
    parameter,
    precision,
    primitive_forward_set,
    record,
    rng_stream,
    zero_grads,
)
from .evaluation import (
    EvalPair,
    PairwiseVote,
    TallyReport,
    aggregate_tally,
    cer,
    cosine_sim,
    levenshtein,
    score_pair,
)
from .flowmatch import (
    cfg_combine,
    fm_loss,
    noise,
    sample_patch,
    target_velocity,
    velocity,
)
from .model import (
    ConditioningCache,
    ModelConfig,
    ModelState,
    conditioning,
    conditioning_batch,
    encode_patches,
    fsq_quantize,
    init_model_state,
    step_hiddens,
    stop_logits,
)
from .pipeline import (
    SyntheticSpec,
    TrainConfig,
    TrainingDiverged,
    TrainingExample,
    default_synthetic_spec,
    load_checkpoint,
    measure_rtf,
    read_latents,
    rtf_value,
    save_checkpoint,
    stop_loss,
    synthesize,
    synthetic_example,
    total_loss,
    train,
    write_latents,
)
from .thai_text import (
    NormalizationConfig,
    expand_mai_yamok,
    load_lexicon,
    normalize,
    numerals_to_thai,
)

__version__ = "0.1.0"
