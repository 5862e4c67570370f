"""Schema-driven layered scene graphs for object-goal navigation.

The package builds and searches topo-semantic maps: an environment schema
fixes the spatial concepts, an incremental mapper folds detection frames into
a layered scene graph, a particle filter tracks alternative topologies, and a
hierarchical planner proposes where to look for an open-vocabulary goal.  A
discrete simulator reproduces the evaluation protocol at desk scale.
"""

from .graph import (
    ConnectorNode,
    ObjectNode,
    PlaceNode,
    RegionNode,
    SceneGraph,
    hop_distances,
    import_graph,
    validate_graph,
)
from .mapper import (
    Detection,
    DetectionFrame,
    MapperConfig,
    MapperState,
    ParsedObservation,
    StepResult,
    estimate_state,
    frames_from_jsonl,
    frames_to_jsonl,
    mapper_step,
    parse_frame,
    update_graph,
)
from .oracle import (
    MatchDecision,
    OracleError,
    RemoteChatBackend,
    RemoteConfig,
    RuleOracle,
    default_tables,
)
from .planner import (
    ExhaustedError,
    PlannerMemory,
    SubgoalPlan,
    find_path,
    propose_object,
    propose_region,
    reason_step,
)
from .schema import (
    ConceptDef,
    ConceptKind,
    EdgeKind,
    Schema,
    VerifierReport,
    builtin_schema,
    layers_of,
    parse_schema,
    serialize_schema,
    verify_schema,
)
from .schemagen import (
    GenerationTrace,
    MockChatBackend,
    Triplet,
    assemble_schema,
    builtin_mock_backend,
    canonicalise,
    extract_triplets,
    generate_description,
    run_pipeline,
)
from .topofilter import (
    FilterConfig,
    FilterState,
    ObsRecord,
    TopologyParticle,
    likelihood,
    map_estimate,
    propose,
    proposal_distribution,
    suggest_merges,
)

__version__ = "0.1.0"
