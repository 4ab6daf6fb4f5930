use std::env::VarError;
use std::time::Duration;

use radar_obs::{ObsConfig, ObsLevel};

/// Which execution path workers run inference on. Single-valued: workers always
/// run the integer GEMM straight off the published snapshot's `i8` bytes. The
/// enum (and [`ServeConfig::exec`]) survives only because the benchmark package
/// names every `ServeConfig` field; it goes away with the next benchmark revision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecPath {
    /// Run forward straight off the snapshot's `i8` bytes through the true integer
    /// GEMM — i8×i8 products accumulated in `i32`, scales applied in the
    /// requantization epilogue, optionally threaded via `RADAR_GEMM_THREADS` — no
    /// float weight tensor, no model write-back.
    #[default]
    QuantizedNative,
}

/// How a batch's verified weights reach its worker. Single-valued, like
/// [`ExecPath`], and kept for the same reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FetchMode {
    /// One fused fetch-and-verify pass per batch builds a shared, epoch-pinned
    /// `VerifiedSnapshot` (bytes copied out of DRAM once, then verified while
    /// cache-hot), published as an `Arc` for
    /// every consumer of the batch. Recovery refreshes happen in the build path
    /// before publish.
    #[default]
    SharedSnapshot,
}

/// Configuration of one serving run.
///
/// Environment knobs (applied by [`from_env`](Self::from_env)):
///
/// | Variable | Meaning | Default |
/// |---|---|---|
/// | `RADAR_SERVE_WORKERS` | inference worker threads | 2 |
/// | `RADAR_SERVE_BATCH` | maximum requests coalesced per batch | 8 |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of inference worker threads (each owns a model replica).
    pub workers: usize,
    /// Maximum requests the batcher coalesces into one batch.
    pub max_batch: usize,
    /// How long the batcher waits for more requests before dispatching a partial batch.
    pub max_wait: Duration,
    /// When set, the batcher waits indefinitely for a full batch (only the end of the
    /// request stream produces a partial one), ignoring `max_wait`. This makes batch
    /// composition — and with it every logical outcome of a run — independent of
    /// thread scheduling; the benchmark scenarios and the replay tests rely on it.
    /// Off, `max_wait` bounds the wait, as a latency-conscious deployment would.
    pub strict_batching: bool,
    /// Capacity of the bounded request queue (senders block when it is full).
    pub queue_capacity: usize,
    /// Whether workers verify each layer in the weight-fetch path (RADAR's in-path
    /// check). Off models a deployment that relies on the background scrubber alone.
    pub inpath_verify: bool,
    /// The scrubber performs one incremental sweep step every `scrub_every` dispatched
    /// batches; `0` disables scrubbing entirely.
    pub scrub_every: usize,
    /// Layers verified per scrub step (clamped to the model's layer count; `0` means
    /// the whole model per step).
    pub scrub_layers: usize,
    /// The background re-keying task performs one rotation action (begin a roll,
    /// re-sign one layer, publish the next epoch, retire the previous one) every
    /// `rotate_every` dispatched batches; `0` disables key rotation. A full roll
    /// of an `L`-layer model therefore spans `L + 3` rotation ticks, during which
    /// workers keep serving — verification pins the epoch it observed and the
    /// protection accepts `{current, previous}` across the publish.
    pub rotate_every: usize,
    /// Served-accuracy window size, in requests.
    pub window: usize,
    /// Which execution path workers run inference on (single-valued; see [`ExecPath`]).
    pub exec: ExecPath,
    /// How a batch's verified weights reach its worker (single-valued; see [`FetchMode`]).
    pub fetch: FetchMode,
    /// Observability configuration: recording level (`Off | Counters | Full`) and
    /// journal capacity. The journal and the `BENCH_serve.json`-contract metrics
    /// record at every level; `Full` additionally records profiling spans for the
    /// Chrome trace exporter.
    pub obs: ObsConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_batch: 8,
            max_wait: Duration::from_millis(50),
            strict_batching: false,
            queue_capacity: 64,
            inpath_verify: true,
            scrub_every: 4,
            scrub_layers: 4,
            rotate_every: 0,
            window: 64,
            exec: ExecPath::QuantizedNative,
            fetch: FetchMode::SharedSnapshot,
            obs: ObsConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Applies the `RADAR_SERVE_*` environment overrides on top of `self`.
    ///
    /// # Panics
    ///
    /// Panics, naming the variable and its value, when a set variable is not a
    /// positive integer: a typo or a `0` fails the run instead of silently
    /// serving with the default.
    pub fn from_env(mut self) -> Self {
        let count = |key: &str| match std::env::var(key) {
            Ok(raw) => Some(parse_count(&raw).unwrap_or_else(|e| panic!("{key}={raw:?}: {e}"))),
            Err(VarError::NotPresent) => None,
            Err(VarError::NotUnicode(raw)) => panic!("{key}={raw:?}: not valid unicode"),
        };
        if let Some(workers) = count("RADAR_SERVE_WORKERS") {
            self.workers = workers;
        }
        if let Some(batch) = count("RADAR_SERVE_BATCH") {
            self.max_batch = batch;
        }
        self
    }

    /// The unprotected-baseline variant: no in-path verification, no scrubbing.
    pub fn unprotected(mut self) -> Self {
        self.inpath_verify = false;
        self.scrub_every = 0;
        self
    }

    /// The scrub-only variant: detection happens exclusively in the background sweep,
    /// never in the fetch path.
    pub fn scrub_only(mut self) -> Self {
        self.inpath_verify = false;
        self
    }

    /// Enables online key rotation at the given cadence (one rotation action every
    /// `every` dispatched batches; see [`rotate_every`](Self::rotate_every)).
    pub fn with_rotation(mut self, every: usize) -> Self {
        self.rotate_every = every;
        self
    }

    /// Sets the observability recording level (see [`ObsConfig`]).
    pub fn with_obs(mut self, level: ObsLevel) -> Self {
        self.obs = ObsConfig { level, ..self.obs };
        self
    }

    /// Panics unless the configuration is runnable (non-zero workers, batch size and
    /// window; a non-empty queue).
    pub fn validate(&self) {
        assert!(self.workers >= 1, "at least one worker is required");
        assert!(self.max_batch >= 1, "max_batch must be non-zero");
        assert!(self.queue_capacity >= 1, "queue_capacity must be non-zero");
        assert!(self.window >= 1, "window must be non-zero");
    }
}

/// Parses a count knob such as `RADAR_SERVE_WORKERS`: a positive decimal integer.
/// Empty, negative, zero and non-numeric values are errors, never a silent default.
fn parse_count(raw: &str) -> Result<usize, String> {
    match raw.parse::<usize>() {
        Ok(0) => Err("must be at least 1".to_owned()),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("expected a positive integer ({e})")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let cfg = ServeConfig::default();
        cfg.validate();
        assert!(cfg.inpath_verify);
        assert!(cfg.scrub_every > 0);
        assert_eq!(cfg.obs.level, ObsLevel::Counters);
        assert_eq!(cfg.with_obs(ObsLevel::Full).obs.level, ObsLevel::Full);
        assert_eq!(cfg.fetch, FetchMode::SharedSnapshot);
        assert_eq!(cfg.exec, ExecPath::QuantizedNative);
    }

    #[test]
    fn count_knobs_parse_strictly() {
        assert_eq!(parse_count("1"), Ok(1));
        assert_eq!(parse_count("16"), Ok(16));
        assert_eq!(parse_count("0"), Err("must be at least 1".to_owned()));
        for bad in ["two", "-1", "", " 2", "2.0"] {
            let err = parse_count(bad).expect_err(bad);
            assert!(err.contains("positive integer"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn unprotected_disables_both_detection_paths() {
        let cfg = ServeConfig::default().unprotected();
        assert!(!cfg.inpath_verify);
        assert_eq!(cfg.scrub_every, 0);
        let scrub_only = ServeConfig::default().scrub_only();
        assert!(!scrub_only.inpath_verify);
        assert!(scrub_only.scrub_every > 0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected() {
        ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        }
        .validate();
    }
}
