//! [`ApplyOptions`]: the one set of run knobs, read by the operator
//! layer (`mpix-core`) and borrowed by the executor for the run.

use mpix_dmp::HaloMode;
use mpix_trace::TraceLevel;

use crate::backend::Backend;
use crate::executor::{validate_vector_width, Fault};

/// The one runtime configuration for `Operator::run` — the paper's
/// `DEVITO_MPI` mode, blocking tile, thread count, time stepping, rank
/// topology, and instrumentation level, in a single struct. The executor borrows it for the whole run
/// ([`OperatorExec::run`](crate::executor::OperatorExec::run)).
///
/// The documented configuration path is: start from the builder
/// (`ApplyOptions::default().with_mode(...).with_ranks(4)...`), then let
/// the environment override it with [`env_overrides`](Self::env_overrides).
/// Environment values always win over builder values, mirroring how the
/// paper's job scripts control a fixed binary:
///
/// | variable       | overrides | values                                 |
/// |----------------|-----------|----------------------------------------|
/// | `MPIX_MPI`     | `mode`    | `basic`, `diag`/`diag2`, `full`        |
/// | `MPIX_BLOCK`   | `block`   | tile edge (0 = off)                    |
/// | `MPIX_THREADS` | `threads` | like `OMP_NUM_THREADS`                 |
/// | `MPIX_RANKS`   | `ranks`   | simulated MPI ranks                    |
/// | `MPIX_TRACE`   | `trace`   | `off`, `summary`, `full`               |
/// | `MPIX_VW`      | `vector_width` | `0`/`1` (scalar), `8`, `16`, `32` |
/// | `MPIX_BACKEND` | `backend` | `bytecode`, `jit`                      |
/// | `MPIX_VERIFY`  | `verify`  | `0`/`off`/`false`, `1`/`on`/`true`     |
/// | `MPIX_SAN`     | `sanitize`| `0`/`off`/`false`, `1`/`on`/`true`     |
#[derive(Clone, Debug)]
pub struct ApplyOptions {
    /// Halo-exchange pattern (the paper's `DEVITO_MPI`).
    pub mode: HaloMode,
    /// Loop-blocking tile edge for the two outermost space dims (0 = off).
    pub block: usize,
    /// Shared-memory worker threads per rank (the OpenMP analogue).
    pub threads: usize,
    /// Lane width for the strip-vectorized interpreter (the runtime
    /// analogue of the paper's `#pragma omp simd`): each compiled op
    /// executes over `vector_width` contiguous innermost-loop points at
    /// once. `0`/`1` = scalar; supported widths are
    /// [`SUPPORTED_VECTOR_WIDTHS`](crate::executor::SUPPORTED_VECTOR_WIDTHS).
    /// Ignored by the `jit` backend, whose lane count is fixed by the
    /// instruction set.
    pub vector_width: usize,
    /// Runtime backend compiling the kernel bodies (see [`Backend`]):
    /// `bytecode` (default, portable) or `jit` (native SIMD). Results
    /// are bitwise identical across backends — only speed differs.
    pub backend: Backend,
    /// Number of time steps.
    pub nt: i64,
    /// First time index (enables external stepping: run `nt` steps from
    /// `t0`, inspect, continue from `t0 + nt` with rotation preserved).
    pub t0: i64,
    /// Time-step size; if `None`, a default of 1.0 is used.
    pub dt: Option<f64>,
    /// Extra runtime scalars beyond `dt`/`h_*`.
    pub scalars: Vec<(String, f32)>,
    /// Simulated MPI ranks for `Operator::run`.
    pub ranks: usize,
    /// Explicit Cartesian topology; `None` = balanced `dims_create`.
    pub topology: Option<Vec<usize>>,
    /// Instrumentation level (see `mpix_trace`); at [`TraceLevel::Off`]
    /// (the default) the hooks cost one branch per span.
    pub trace: TraceLevel,
    /// Label stamped into the [`PerfSummary`](mpix_trace::PerfSummary)
    /// (e.g. `acoustic-so4`).
    pub label: String,
    /// Run the `mpix-analysis` self-verification passes over the
    /// operator's artifacts before executing (the run configuration
    /// only; the `mpix-verify` binary sweeps the full matrix). Errors
    /// panic — executing a provably broken schedule would produce wrong
    /// numerics or deadlock; warnings ride along on the
    /// [`PerfSummary::diagnostics`](mpix_trace::PerfSummary::diagnostics).
    /// Defaults to on in debug builds.
    pub verify: bool,
    /// Run under the `mpix-san` happens-before sanitizer: vector clocks
    /// on every message/barrier plus shadow state on halo regions, with
    /// findings appended to
    /// [`PerfSummary::diagnostics`](mpix_trace::PerfSummary::diagnostics)
    /// and printed to stderr. Off by default — when off the only cost
    /// anywhere in the runtime is one `Option` branch per hook site.
    pub sanitize: bool,
    /// Test-only fault injection for the sanitizer's mutant corpus:
    /// makes the executor misbehave in a specific way so the owning
    /// detector can prove it fires. Never set this outside tests.
    #[doc(hidden)]
    pub fault: Option<Fault>,
}

impl Default for ApplyOptions {
    fn default() -> Self {
        ApplyOptions {
            mode: HaloMode::Basic,
            block: 0,
            threads: 1,
            vector_width: 0,
            backend: Backend::Bytecode,
            nt: 1,
            t0: 0,
            dt: None,
            scalars: Vec::new(),
            ranks: 1,
            topology: None,
            trace: TraceLevel::Off,
            label: "operator".to_string(),
            verify: cfg!(debug_assertions),
            sanitize: false,
            fault: None,
        }
    }
}

impl ApplyOptions {
    pub fn with_mode(mut self, mode: HaloMode) -> Self {
        self.mode = mode;
        self
    }
    pub fn with_nt(mut self, nt: i64) -> Self {
        self.nt = nt;
        self
    }
    pub fn with_t0(mut self, t0: i64) -> Self {
        self.t0 = t0;
        self
    }
    pub fn with_dt(mut self, dt: f64) -> Self {
        self.dt = Some(dt);
        self
    }
    pub fn with_block(mut self, block: usize) -> Self {
        self.block = block;
        self
    }
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
    pub fn with_vector_width(mut self, vw: usize) -> Self {
        self.vector_width = validate_vector_width(vw);
        self
    }
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }
    pub fn with_scalar(mut self, name: &str, v: f32) -> Self {
        self.scalars.push((name.to_string(), v));
        self
    }
    pub fn with_ranks(mut self, ranks: usize) -> Self {
        self.ranks = ranks.max(1);
        self
    }
    pub fn with_topology(mut self, dims: &[usize]) -> Self {
        self.topology = Some(dims.to_vec());
        self
    }
    pub fn with_trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }
    pub fn with_label(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }
    pub fn with_sanitize(mut self, sanitize: bool) -> Self {
        self.sanitize = sanitize;
        self
    }

    /// Apply environment overrides on top of the builder values (env
    /// wins — see the table on [`ApplyOptions`]). Unset variables leave
    /// the builder value untouched; a set-but-unparseable value panics,
    /// like [`TraceLevel::from_env`] — silently ignoring a typo'd job
    /// script is worse.
    pub fn env_overrides(mut self) -> Self {
        if let Ok(v) = std::env::var("MPIX_MPI") {
            self.mode = HaloMode::parse(&v)
                .unwrap_or_else(|| panic!("MPIX_MPI={v:?}: expected basic|diag|diag2|full"));
        }
        if let Ok(v) = std::env::var("MPIX_BLOCK") {
            self.block = v
                .parse()
                .unwrap_or_else(|_| panic!("MPIX_BLOCK={v:?}: expected a block size"));
        }
        if let Ok(v) = std::env::var("MPIX_THREADS") {
            // Zero is as malformed as a typo: clamping `MPIX_THREADS=0`
            // to 1 would silently run a misconfigured job script, which
            // the contract above promises never happens.
            self.threads = match v.parse() {
                Ok(t) if t >= 1 => t,
                _ => panic!("MPIX_THREADS={v:?}: expected a thread count >= 1"),
            };
        }
        if let Ok(v) = std::env::var("MPIX_RANKS") {
            self.ranks = match v.parse() {
                Ok(r) if r >= 1 => r,
                _ => panic!("MPIX_RANKS={v:?}: expected a rank count >= 1"),
            };
        }
        if std::env::var("MPIX_TRACE").is_ok() {
            self.trace = TraceLevel::from_env();
        }
        if let Ok(v) = std::env::var("MPIX_VW") {
            let vw: usize = v
                .parse()
                .unwrap_or_else(|_| panic!("MPIX_VW={v:?}: expected a lane width (0|1|8|16|32)"));
            self.vector_width = validate_vector_width(vw);
        }
        if let Ok(v) = std::env::var("MPIX_BACKEND") {
            self.backend = v
                .parse()
                .unwrap_or_else(|e| panic!("MPIX_BACKEND={v:?}: {e}"));
        }
        if let Ok(v) = std::env::var("MPIX_VERIFY") {
            self.verify = match v.to_ascii_lowercase().as_str() {
                "1" | "on" | "true" => true,
                "0" | "off" | "false" => false,
                _ => panic!("MPIX_VERIFY={v:?}: expected 0|1|on|off|true|false"),
            };
        }
        if let Ok(v) = std::env::var("MPIX_SAN") {
            self.sanitize = match v.to_ascii_lowercase().as_str() {
                "1" | "on" | "true" => true,
                "0" | "off" | "false" => false,
                _ => panic!("MPIX_SAN={v:?}: expected 0|1|on|off|true|false"),
            };
        }
        self
    }

    /// Defaults plus environment overrides — the paper's job-script
    /// path for a binary with no hard-coded configuration.
    pub fn from_env() -> Self {
        ApplyOptions::default().env_overrides()
    }
}
