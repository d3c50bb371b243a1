//! # mpix-analysis::lint
//!
//! Static lints over the compiler's own artifacts, each under a stable
//! `MPX0xx` code from [`registry`]:
//!
//! * [`absint`] — abstract interpretation (interval + def-use dataflow)
//!   over cluster expressions and the compiled bytecode: uninitialized
//!   reads, statically-zero divisors, NaN-producing ops, dead stores,
//!   unused fields, out-of-domain indices (`MPX001`–`MPX008`).
//! * [`parametric`] — the parametric-in-P communication-schedule prover:
//!   tag windows, send/recv pairing, halo-annulus coverage and corner
//!   provenance proven symbolically over topology position classes, so
//!   the verdict holds for *every* rank count `dims_create` can produce
//!   (`MPX010`–`MPX014`).
//!
//! Unlike the heavyweight verification passes, lints run before any
//! backend work and are cheap enough to gate every `Operator::run` with
//! `verify` on. Each finding carries its code; [`LintConfig`] maps codes
//! to [`LintLevel`]s (allow / warn / deny), overridable per code through
//! the `MPIX_LINT` environment variable:
//!
//! ```text
//! MPIX_LINT="MPX004=allow,dead-store=allow,all=deny,MPX005=warn"
//! ```
//!
//! Entries apply left to right; `all` resets every lint. Unknown codes
//! or levels panic — a misspelled suppression silently keeping a deny
//! active (or dropping one) is exactly the failure mode a lint config
//! must not have.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use mpix_dmp::halo::HaloMode;
use mpix_ir::cluster::Cluster;
use mpix_ir::halo::HaloPlan;
use mpix_symbolic::{Context, FieldId};
use mpix_trace::Diagnostic;

pub mod absint;
pub mod parametric;
pub mod registry;

pub use registry::{lint_by_code, lint_by_name, LintDef, LintLevel, LINTS};

/// One raw finding from a lint pass, before level mapping. Kept separate
/// from [`Diagnostic`] so passes stay policy-free: they report what they
/// proved, [`LintConfig::apply`] decides severity or suppression.
#[derive(Clone, Debug)]
pub struct LintFinding {
    /// Registry code (`MPX0xx`).
    pub code: &'static str,
    /// IR location, same conventions as [`Diagnostic::location`].
    pub location: String,
    /// What was proven and why it matters.
    pub explanation: String,
}

impl LintFinding {
    pub fn new(
        code: &'static str,
        location: impl Into<String>,
        explanation: impl Into<String>,
    ) -> LintFinding {
        debug_assert!(
            registry::lint_by_code(code).is_some(),
            "unregistered {code}"
        );
        LintFinding {
            code,
            location: location.into(),
            explanation: explanation.into(),
        }
    }
}

/// Per-code enforcement levels: registry defaults plus overrides.
#[derive(Clone, Debug, Default)]
pub struct LintConfig {
    overrides: BTreeMap<&'static str, LintLevel>,
}

impl LintConfig {
    /// Registry defaults, no overrides.
    pub fn new() -> LintConfig {
        LintConfig::default()
    }

    /// Registry defaults plus the `MPIX_LINT` environment override.
    /// Panics on a malformed spec (same contract as [`LintConfig::parse`]).
    pub fn from_env() -> LintConfig {
        match std::env::var("MPIX_LINT") {
            Ok(spec) => LintConfig::parse(&spec),
            Err(_) => LintConfig::new(),
        }
    }

    /// Parse a comma-separated `key=level` spec. Keys are registry codes
    /// (`MPX004`), lint names (`dead-store`), or `all`; levels are
    /// `allow` / `warn` / `deny`. Later entries win. Panics on unknown
    /// keys or levels — silent misconfiguration of a lint gate is worse
    /// than a crash at startup.
    pub fn parse(spec: &str) -> LintConfig {
        let mut cfg = LintConfig::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, level) = entry
                .split_once('=')
                .unwrap_or_else(|| panic!("MPIX_LINT entry {entry:?} is not key=level"));
            let level = LintLevel::parse(level.trim()).unwrap_or_else(|| {
                panic!("MPIX_LINT entry {entry:?}: level must be allow, warn or deny")
            });
            let key = key.trim();
            if key == "all" {
                for l in LINTS {
                    cfg.overrides.insert(l.code, level);
                }
                continue;
            }
            let def = lint_by_code(key)
                .or_else(|| lint_by_name(key))
                .unwrap_or_else(|| panic!("MPIX_LINT entry {entry:?}: unknown lint {key:?}"));
            cfg.overrides.insert(def.code, level);
        }
        cfg
    }

    /// Override the level for one code (panics on unknown codes).
    pub fn set(&mut self, code: &str, level: LintLevel) -> &mut LintConfig {
        let def = lint_by_code(code)
            .or_else(|| lint_by_name(code))
            .unwrap_or_else(|| panic!("unknown lint {code:?}"));
        self.overrides.insert(def.code, level);
        self
    }

    /// Effective level for a code.
    pub fn level(&self, code: &str) -> LintLevel {
        if let Some(&lv) = self.overrides.get(code) {
            return lv;
        }
        lint_by_code(code).map_or(LintLevel::Warn, |d| d.default_level)
    }

    /// Map raw findings through the configured levels: `allow` findings
    /// are dropped, the rest become [`Diagnostic`]s (pass `lint`) at the
    /// level's severity, carrying their code.
    pub fn apply(&self, findings: Vec<LintFinding>) -> Vec<Diagnostic> {
        findings
            .into_iter()
            .filter_map(|f| {
                let sev = self.level(f.code).severity()?;
                Some(Diagnostic::new(sev, "lint", f.location, f.explanation).with_code(f.code))
            })
            .collect()
    }
}

/// Run every lint over one operator's artifacts and map through `cfg`.
///
/// `assume_initialized`: fields whose allocated buffers are known to be
/// externally filled before the first step (solver `init` writes, source
/// injection). `None` means "unknown": only reads of the buffer being
/// written this step (`t+1` before its store — stale data under buffer
/// rotation) are flagged, the conservative contract every operator must
/// satisfy. `Some(set)` additionally flags any read of a field outside
/// `set` that no earlier cluster wrote.
pub fn lint_operator(
    ctx: &Context,
    clusters: &[Cluster],
    plan: &HaloPlan,
    modes: &[HaloMode],
    assume_initialized: Option<&BTreeSet<FieldId>>,
    cfg: &LintConfig,
) -> Vec<Diagnostic> {
    let mut findings = absint::lint_clusters(ctx, clusters, assume_initialized);
    findings.extend(absint::lint_bytecode(clusters));
    findings.extend(parametric::lint_schedules(ctx, plan, modes));
    // Structural floating-point lints (MPX015/MPX016): no value or
    // scalar bindings here, so only provable-from-structure findings
    // can fire. The full certificate path is `crate::fp::certify`.
    findings.extend(crate::fp::lint_clusters_fp(ctx, clusters));
    cfg.apply(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_registry() {
        let cfg = LintConfig::new();
        assert_eq!(cfg.level("MPX001"), LintLevel::Deny);
        assert_eq!(cfg.level("MPX004"), LintLevel::Warn);
    }

    #[test]
    fn parse_applies_left_to_right() {
        let cfg = LintConfig::parse("all=allow, MPX002=deny, dead-store=warn");
        assert_eq!(cfg.level("MPX001"), LintLevel::Allow);
        assert_eq!(cfg.level("MPX002"), LintLevel::Deny);
        assert_eq!(cfg.level("MPX004"), LintLevel::Warn);
    }

    #[test]
    #[should_panic(expected = "unknown lint")]
    fn parse_rejects_unknown_codes() {
        LintConfig::parse("MPX999=allow");
    }

    #[test]
    #[should_panic(expected = "allow, warn or deny")]
    fn parse_rejects_unknown_levels() {
        LintConfig::parse("MPX004=forbid");
    }

    /// Panic messages must name the offending entry verbatim so a user
    /// can find it in a long comma-separated spec — "bad spec" alone is
    /// not actionable.
    fn parse_panic_message(spec: &str) -> String {
        let err = std::panic::catch_unwind(|| LintConfig::parse(spec))
            .expect_err("malformed spec must panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a message")
    }

    #[test]
    fn parse_errors_name_the_offending_entry() {
        let msg = parse_panic_message("MPX004=allow,MPX999=deny");
        assert!(msg.contains("MPX999"), "names the bad key: {msg}");
        assert!(msg.contains("unknown lint"), "says what is wrong: {msg}");

        let msg = parse_panic_message("dead-store=forbid");
        assert!(
            msg.contains("dead-store=forbid"),
            "quotes the full entry: {msg}"
        );
        assert!(
            msg.contains("allow, warn or deny"),
            "lists the valid levels: {msg}"
        );

        // A bare key with no `=` is a distinct failure with its own
        // message (it is not an "unknown lint").
        let msg = parse_panic_message("MPX004");
        assert!(
            msg.contains("is not key=level") && msg.contains("MPX004"),
            "explains the expected shape: {msg}"
        );
    }

    #[test]
    fn parse_duplicate_entries_last_wins() {
        // Documented contract ("later entries win"): duplicates are not
        // an error, the rightmost binding takes effect — including when
        // the same lint is addressed once by code and once by name.
        let cfg = LintConfig::parse("MPX004=deny,MPX004=allow");
        assert_eq!(cfg.level("MPX004"), LintLevel::Allow);
        let cfg = LintConfig::parse("dead-store=allow,MPX004=deny");
        assert_eq!(cfg.level("MPX004"), LintLevel::Deny);
        let cfg = LintConfig::parse("MPX004=deny,dead-store=allow");
        assert_eq!(cfg.level("MPX004"), LintLevel::Allow);
    }

    #[test]
    fn parse_empty_spec_keeps_registry_defaults() {
        // `MPIX_LINT=""` (and stray separators/whitespace) must behave
        // exactly like an unset variable, not panic on an empty entry.
        for spec in ["", " ", ",", " , ,", "\t"] {
            let cfg = LintConfig::parse(spec);
            for l in LINTS {
                assert_eq!(
                    cfg.level(l.code),
                    l.default_level,
                    "spec {spec:?} changed {}",
                    l.code
                );
            }
        }
    }

    #[test]
    fn kebab_name_and_code_are_equivalent_keys() {
        // Every registry entry must be addressable by code and by its
        // kebab name with identical effect (and `set` follows suit).
        for l in LINTS {
            let by_code = LintConfig::parse(&format!("{}=deny", l.code));
            let by_name = LintConfig::parse(&format!("{}=deny", l.name));
            assert_eq!(
                by_code.level(l.code),
                by_name.level(l.code),
                "{} vs {}",
                l.code,
                l.name
            );
            assert_eq!(by_name.level(l.code), LintLevel::Deny);
        }
    }

    /// The schedule prover runs once per `(mode, nd)` and its findings
    /// are copied to every exchange key: above the modelled
    /// dimensionality each key must still get its own `MPX014` per mode
    /// (and `MPX010` for *diagonal* and *full*, whose 4-D tag layout of
    /// 3^4 messages overflows the window), each located under its own
    /// buffer. `Grid::new` stops at 3-D, so the 4-D fields and their
    /// exchange plan are built by hand.
    #[test]
    fn four_dimensional_findings_are_reported_per_key() {
        use mpix_ir::halo::HaloXchg;
        use mpix_symbolic::Grid;

        let mut ctx = Context::new();
        let g = Grid {
            shape: vec![8; 4],
            extent: vec![1.0; 4],
        };
        let u = ctx.add_time_function("u", &g, 2, 2).id();
        let v = ctx.add_time_function("v", &g, 2, 2).id();
        let m = ctx.add_function("m", &g, 2).id();
        let xchg = |field, time_offset| HaloXchg {
            field,
            time_offset,
            radius: vec![1; 4],
        };
        let plan = HaloPlan {
            hoisted: vec![xchg(m, 0)],
            per_cluster: vec![vec![xchg(u, 0), xchg(v, 0)], vec![xchg(u, 1)]],
        };
        let keys = crate::comm_schedule::exchange_keys(&plan);
        assert_eq!(keys.len(), 4, "{keys:?}");

        let modes = [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full];
        let diags = lint_operator(&ctx, &[], &plan, &modes, None, &LintConfig::new());
        for &(f, toff, _) in &keys {
            let buf = crate::buf_name(&ctx, f, toff);
            for mode in modes {
                let prefix = format!("{buf} / {mode:?} (all P) / ");
                let codes: Vec<&str> = diags
                    .iter()
                    .filter(|d| d.location.starts_with(&prefix))
                    .filter_map(|d| d.code.as_deref())
                    .collect();
                let want = if mode != HaloMode::Basic {
                    vec!["MPX010", "MPX014"]
                } else {
                    vec!["MPX014"]
                };
                assert_eq!(codes, want, "{prefix}: {diags:?}");
            }
        }
        let schedule_findings = diags
            .iter()
            .filter(|d| matches!(d.code.as_deref(), Some("MPX010" | "MPX014")))
            .count();
        assert_eq!(schedule_findings, keys.len() * (modes.len() + 2));
    }

    #[test]
    fn apply_drops_allowed_and_maps_severity() {
        let mut cfg = LintConfig::new();
        cfg.set("MPX004", LintLevel::Allow)
            .set("MPX005", LintLevel::Deny);
        let out = cfg.apply(vec![
            LintFinding::new("MPX004", "cluster 0", "dead"),
            LintFinding::new("MPX005", "field m", "unused"),
        ]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code.as_deref(), Some("MPX005"));
        assert_eq!(out[0].severity, mpix_trace::Severity::Error);
        assert_eq!(out[0].pass, "lint");
    }
}
