"""dialoforge: synthetic task-oriented dialogue datasets with controllable
events and label noise, plus a small evaluation harness."""

__version__ = "0.1.0"

from .engine import (  # noqa: F401
    Dialogue,
    DialogueStack,
    DialogueTurn,
    EventKind,
    GeneratorConfig,
    Phase,
    TopicFrame,
    UserAct,
    generate_dialogue,
    sample_user_turn,
    step_policy,
)
from .dataset import Dataset, generate_dataset, read_dataset, write_dataset, write_generated  # noqa: F401
from .encoding import (  # noqa: F401
    EncodedDataset,
    StateLayout,
    encode_actions,
    encode_dataset,
    encode_state,
)
from .injection import (  # noqa: F401
    ErrorConfig,
    PerturbationRecord,
    PerturbMode,
    inject_errors,
    perturb_label,
    revert_errors,
)
from .harness import (  # noqa: F401
    LinearModel,
    MemorizerModel,
    SweepResult,
    predict,
    robustness_sweep,
    train_linear,
    train_memorizer,
)
from .metrics import MetricsReport, compute_metrics  # noqa: F401
from .ontology import (  # noqa: F401
    ActionKind,
    IntentKind,
    Ontology,
    SlotCategory,
    enumerate_atomic_actions,
    load_ontology,
    parse_action_id,
    preset_ontology,
)
