"""Deterministic simulator for chirp-based underwater acoustic links with a
neural receiver trained by federated meta-learning, plus the closed-form
convergence-bound calculator."""

__version__ = "0.1.0"

from .chirp import (ChirpParams, ComplexityReport, Waveform, downsample,
                    dnn_op_count, generate_chirp, mf_op_count)
from .channel import (ChannelRealization, ImpairmentSpec, RayleighModelConfig,
                      apply_channel, bell_spectrum, load_cir, rayleigh_cir,
                      save_cir)
from .receiver import (LabeledBatch, MlpParams, ber_eval, grad, init_params,
                       loss)
from .federation import (FmlConfig, NodeState, RoundLog, aggregate,
                         build_nodes, local_fedavg_step, local_maml_step,
                         run_rounds, schedule)
from .bound import (DerivedConstants, SmoothnessConstants, derive_constants,
                    m_of_T, tz_bound)
from .data import (DatasetSpec, SymbolSet, build_node_dataset, load_dataset,
                   save_dataset)
