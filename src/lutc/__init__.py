"""lutc: compile sparse, quantized, piecewise-polynomial neural networks
into bit-exact LUT netlists and synthesizable Verilog."""

from .basis import MonomialBasis, count_monomials, enumerate_basis, expand
from .data import Dataset, DataFormatError, gen_spirals, load_csv, load_idx, split_normalize
from .model import (
    NetworkSpec,
    PROFILES,
    TrainedModel,
    accuracy,
    build_masks,
    eval_codes,
    forward_codes,
    init_model,
    layer_eval,
    load_checkpoint,
    predict,
    save_checkpoint,
    spec_from_profile,
    validate_model,
    validate_spec,
)
from .netlist import (
    CostReport,
    EquivalenceReport,
    LutLayer,
    Netlist,
    build_netlist,
    dump_tables,
    equivalence_check,
    load_netlist,
    load_tables,
    lut_cost,
    pareto_front,
    report,
    save_netlist,
    simulate,
)
from .quantize import BatchNormParams, Quantizer, bn_apply, dequantize, quantize
from .rtl import check_bundle, emit_bundle, emit_golden_vectors
from .tables import tabulate_layer, tabulate_model
from .trainer import TrainConfig, TrainingDiverged, sgdr_lr, train

__version__ = "0.1.0"
