"""Message-level Galileo OSNMA authentication simulator.

Covers the authentication mechanism itself (key chain, tag and root-key
verification, time-synchronization rules, page formats), a simulated
victim receiver, and generators for replay, forgery and concatenating
replay attacks, all runnable at desk scale.
"""

from .gst import (
    AlternateThreshold,
    Gst,
    LrtSource,
    SymmetricBound,
    TsStartup,
    check_time_sync,
    ts_startup,
)
from .pages import (
    PageContent,
    PageEvent,
    Source,
    Subframe,
    assemble_round,
    compute_crc,
    crc24q,
    decode_page,
    encode_page,
    extract_osnma,
)
from .tesla import (
    RootKeyMessage,
    TeslaChain,
    TeslaKey,
    build_root_message,
    derive_prev_key,
    sign_root,
    verify_key,
    verify_root,
)
from .mack import (
    build_auth_message,
    compute_tag,
    generate_subframe_tags,
    pack_mack,
    unpack_mack,
    verify_tags,
)
from .positioning import Fix, SatState, forge_pseudoranges, solve_position
from .receiver import AuthResult, Outcome, Receiver, ReceiverConfig, Status
from .attacks import (
    CrTiming,
    RecordedStream,
    TsfConfig,
    cr_compose,
    ntp_mitm_delay,
    replay_realtime,
    replay_recorded,
    tsf_forge_subframes,
)
from .scenario import (
    Scenario,
    diff_reports,
    generate_synthetic_constellation,
    run_scenario,
)
from .vectors import TestVectorSet

__version__ = "0.1.0"
