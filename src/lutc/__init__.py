"""lutc: compile sparse, quantized, piecewise-polynomial neural networks
into bit-exact LUT netlists and synthesizable Verilog."""

from .basis import MonomialBasis, count_monomials, enumerate_basis, expand, expand_grad
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
    LutNode,
    Netlist,
    build_netlist,
    equivalence_check,
    load_netlist,
    lut_cost,
    pareto_front,
    report,
    save_netlist,
    simulate,
)
from .quantize import BatchNormParams, Quantizer, bn_apply, dequantize, quantize
from .rtl import RtlBundle, check_bundle, emit_bundle, emit_golden_vectors, write_bundle
from .tables import (TruthTable, dump_tables, load_tables, tabulate_layer, tabulate_model,
                     tabulate_neuron, verify_table)
from .trainer import TrainConfig, TrainingDiverged, sgdr_lr, train

__version__ = "0.1.0"
