//! The unified runtime configuration: one typed struct behind every
//! `MESHFREE_*` knob.
//!
//! Historically each subsystem read its own environment variable at its
//! own time (`MESHFREE_THREADS` in the pool, `MESHFREE_CACHE_BYTES` /
//! `MESHFREE_BATCH_WINDOW_MS` in the serve daemon, `MESHFREE_TRACE` in
//! the telemetry layer, `MESHFREE_BLESS` in the golden framework).
//! [`RuntimeConfig`] replaces those scattered reads with one
//! builder-style struct resolved once at startup and consulted by every
//! constructor.
//!
//! # Precedence
//!
//! Resolution applies, from weakest to strongest:
//!
//! 1. **built-in defaults** — pool width = the machine
//!    (`available_parallelism`), cache budget = 256 MiB, batch window =
//!    2 ms, tracing off, blessing off;
//! 2. **builder values** — whatever the embedding program set through
//!    [`RuntimeConfigBuilder`];
//! 3. **environment variables** — the historical `MESHFREE_*` names,
//!    which keep working unchanged and *override* builder values, so an
//!    operator can always retune a deployed binary without a rebuild.
//!
//! Unparseable environment values fall back exactly as the historical
//! readers did: an invalid `MESHFREE_THREADS` means a serial pool, an
//! invalid budget/window means the default, any non-`1/true/yes` bless
//! value means no blessing.
//!
//! # Global vs explicit
//!
//! [`RuntimeConfig::global`] resolves once (builder defaults + env) and
//! caches for the process lifetime — this is what the global thread
//! pool, the trace layer, the serve daemon's `from_env` constructors and
//! the golden bless protocol consult. Components that want explicit,
//! test-local configuration take a `&RuntimeConfig` (or the specific
//! field) instead; nothing stops a test from resolving its own.

use std::sync::OnceLock;
use std::time::Duration;

/// Environment variable naming the global pool width.
pub const THREADS_ENV: &str = "MESHFREE_THREADS";
/// Environment variable holding the serve factorization-cache budget in
/// bytes.
pub const CACHE_BYTES_ENV: &str = "MESHFREE_CACHE_BYTES";
/// Environment variable holding the serve eval-batching window in
/// milliseconds: the longest an eval waits for company. The window
/// closes early once every live session has an eval queued.
pub const BATCH_WINDOW_ENV: &str = "MESHFREE_BATCH_WINDOW_MS";
/// Environment variable naming the telemetry sink path (`.jsonl`/`.csv`).
pub const TRACE_ENV: &str = "MESHFREE_TRACE";
/// Environment variable requesting golden-snapshot re-blessing.
pub const BLESS_ENV: &str = "MESHFREE_BLESS";

/// Default serve cache budget when nothing else specifies one: 256 MiB.
pub const DEFAULT_CACHE_BYTES: usize = 256 * 1024 * 1024;
/// Default serve eval-batching window (the longest an eval waits for
/// company): 2 ms.
pub const DEFAULT_BATCH_WINDOW: Duration = Duration::from_millis(2);

/// The resolved runtime configuration. See the [module docs](self) for
/// the precedence rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Global thread-pool width (workers + the submitting thread).
    pub threads: usize,
    /// Serve factorization-cache budget in bytes.
    pub cache_bytes: usize,
    /// Serve eval-batching window.
    pub batch_window: Duration,
    /// Telemetry sink path (`None` = tracing disabled).
    pub trace: Option<String>,
    /// Whether golden snapshots re-bless instead of comparing.
    pub bless: bool,
}

impl RuntimeConfig {
    /// Starts a builder seeded with the built-in defaults.
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder::default()
    }

    /// The process-wide configuration: built-in defaults overridden by
    /// the `MESHFREE_*` environment, resolved once on first call and
    /// cached for the process lifetime.
    pub fn global() -> &'static RuntimeConfig {
        static GLOBAL: OnceLock<RuntimeConfig> = OnceLock::new();
        GLOBAL.get_or_init(|| RuntimeConfig::builder().resolve())
    }
}

/// Builder for [`RuntimeConfig`]. Every setter establishes the
/// *programmatic* layer; [`RuntimeConfigBuilder::resolve`] then lets the
/// environment override it (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct RuntimeConfigBuilder {
    threads: Option<usize>,
    cache_bytes: Option<usize>,
    batch_window: Option<Duration>,
    trace: Option<String>,
    bless: Option<bool>,
}

impl RuntimeConfigBuilder {
    /// Sets the pool width (clamped to at least 1 at resolution).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Sets the serve cache budget in bytes.
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = Some(bytes);
        self
    }

    /// Sets the serve eval-batching window.
    pub fn batch_window(mut self, window: Duration) -> Self {
        self.batch_window = Some(window);
        self
    }

    /// Sets the telemetry sink path.
    pub fn trace(mut self, path: impl Into<String>) -> Self {
        self.trace = Some(path.into());
        self
    }

    /// Sets the golden bless flag.
    pub fn bless(mut self, bless: bool) -> Self {
        self.bless = Some(bless);
        self
    }

    /// Resolves against the process environment: every `MESHFREE_*`
    /// variable that is set (and parseable) overrides the corresponding
    /// builder value; unset variables leave the builder value (or the
    /// built-in default) in place.
    pub fn resolve(self) -> RuntimeConfig {
        self.resolve_with(|name| std::env::var(name).ok())
    }

    /// [`RuntimeConfigBuilder::resolve`] against an explicit environment
    /// lookup — the test seam (unit tests inject maps instead of
    /// mutating the process environment, which is unsafe under threads).
    pub fn resolve_with(self, env: impl Fn(&str) -> Option<String>) -> RuntimeConfig {
        let threads = match env(THREADS_ENV) {
            // Historical contract: a set-but-invalid MESHFREE_THREADS
            // means a serial pool, never a crash.
            Some(v) => match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => 1,
            },
            None => self
                .threads
                .map(|n| n.max(1))
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        };
        let cache_bytes = env(CACHE_BYTES_ENV)
            .and_then(|v| v.trim().parse().ok())
            .or(self.cache_bytes)
            .unwrap_or(DEFAULT_CACHE_BYTES);
        let batch_window = env(BATCH_WINDOW_ENV)
            .and_then(|v| v.trim().parse().ok())
            .map(Duration::from_millis)
            .or(self.batch_window)
            .unwrap_or(DEFAULT_BATCH_WINDOW);
        let trace = match env(TRACE_ENV) {
            Some(path) if !path.is_empty() => Some(path),
            Some(_) => None, // MESHFREE_TRACE="" explicitly disables
            None => self.trace,
        };
        let bless = match env(BLESS_ENV) {
            Some(v) => matches!(v.as_str(), "1" | "true" | "yes"),
            None => self.bless.unwrap_or(false),
        };
        RuntimeConfig {
            threads,
            cache_bytes,
            batch_window,
            trace,
            bless,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn env_of(pairs: &[(&str, &str)]) -> impl Fn(&str) -> Option<String> {
        let map: HashMap<String, String> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        move |name| map.get(name).cloned()
    }

    #[test]
    fn defaults_without_env_or_builder() {
        let cfg = RuntimeConfig::builder().resolve_with(|_| None);
        assert!(cfg.threads >= 1);
        assert_eq!(cfg.cache_bytes, DEFAULT_CACHE_BYTES);
        assert_eq!(cfg.batch_window, DEFAULT_BATCH_WINDOW);
        assert_eq!(cfg.trace, None);
        assert!(!cfg.bless);
    }

    #[test]
    fn builder_values_apply_when_env_unset() {
        let cfg = RuntimeConfig::builder()
            .threads(3)
            .cache_bytes(1024)
            .batch_window(Duration::from_millis(7))
            .trace("/tmp/t.jsonl")
            .bless(true)
            .resolve_with(|_| None);
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.cache_bytes, 1024);
        assert_eq!(cfg.batch_window, Duration::from_millis(7));
        assert_eq!(cfg.trace.as_deref(), Some("/tmp/t.jsonl"));
        assert!(cfg.bless);
    }

    #[test]
    fn env_overrides_builder() {
        let env = env_of(&[
            (THREADS_ENV, "5"),
            (CACHE_BYTES_ENV, "2048"),
            (BATCH_WINDOW_ENV, "11"),
            (TRACE_ENV, "/tmp/env.csv"),
            (BLESS_ENV, "1"),
        ]);
        let cfg = RuntimeConfig::builder()
            .threads(3)
            .cache_bytes(1024)
            .batch_window(Duration::from_millis(7))
            .trace("/tmp/builder.jsonl")
            .bless(false)
            .resolve_with(env);
        assert_eq!(cfg.threads, 5);
        assert_eq!(cfg.cache_bytes, 2048);
        assert_eq!(cfg.batch_window, Duration::from_millis(11));
        assert_eq!(cfg.trace.as_deref(), Some("/tmp/env.csv"));
        assert!(cfg.bless);
    }

    #[test]
    fn invalid_env_values_follow_historical_fallbacks() {
        let env = env_of(&[
            (THREADS_ENV, "zero?"),
            (CACHE_BYTES_ENV, "lots"),
            (BATCH_WINDOW_ENV, "-3"),
            (BLESS_ENV, "maybe"),
        ]);
        let cfg = RuntimeConfig::builder().cache_bytes(999).resolve_with(env);
        assert_eq!(cfg.threads, 1, "invalid MESHFREE_THREADS means serial");
        assert_eq!(cfg.cache_bytes, 999, "unparseable env falls to builder");
        assert_eq!(cfg.batch_window, DEFAULT_BATCH_WINDOW);
        assert!(!cfg.bless);
    }

    #[test]
    fn empty_trace_env_disables_tracing() {
        let env = env_of(&[(TRACE_ENV, "")]);
        let cfg = RuntimeConfig::builder()
            .trace("/tmp/builder.jsonl")
            .resolve_with(env);
        assert_eq!(cfg.trace, None);
    }

    #[test]
    fn bless_accepts_the_historical_spellings() {
        for v in ["1", "true", "yes"] {
            let cfg = RuntimeConfig::builder().resolve_with(env_of(&[(BLESS_ENV, v)]));
            assert!(cfg.bless, "{v:?} must bless");
        }
        let cfg = RuntimeConfig::builder()
            .bless(true)
            .resolve_with(env_of(&[(BLESS_ENV, "0")]));
        assert!(!cfg.bless, "a set-but-falsy env must override the builder");
    }

    #[test]
    fn global_is_stable_across_calls() {
        assert!(std::ptr::eq(
            RuntimeConfig::global(),
            RuntimeConfig::global()
        ));
    }
}
