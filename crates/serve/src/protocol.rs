//! The sp-serve wire protocol: newline-delimited JSON requests and
//! responses, and the canonical cache key a request resolves to.
//!
//! ## Requests
//!
//! One UTF-8 JSON object per line, at most 64 KiB including the
//! newline. `type` selects the command; everything else has a
//! default, so `{"type":"sweep"}` is a valid request:
//!
//! ```text
//! {"id":7,"type":"sweep","bench":"em3d","scale":"test","rp":0.5,
//!  "distances":[2,4,8],"cache":"scaled","l2_kb":256,"ways":16,"line":64,
//!  "hw_prefetch":true,"prefetcher":"streamer+dpl","blocking_helper":true,
//!  "passes":1,"timeout_ms":30000}
//! {"type":"point","bench":"mcf","distance":8}
//! {"type":"affinity","bench":"mst","scale":"test"}
//! {"type":"burn","ms":50}            # load-testing: occupies a worker
//! {"type":"stats"}                   # metrics snapshot, never queued
//! {"type":"metrics"}                 # Prometheus text exposition, never queued
//! {"type":"ping"}
//! {"type":"shutdown"}                # graceful drain
//! ```
//!
//! ## Responses
//!
//! `{"id":...,"ok":true,"cached":false,"micros":1234,"result":{...}}` on
//! success; `{"id":...,"ok":false,"error":"busy","detail":"..."}` on
//! failure. `error` is one of `bad_request`, `line_too_long` (sent as
//! soon as a line passes the size cap; the rest of that line is
//! discarded), `busy` (backpressure — try again later), `timeout`,
//! `shutting_down`, or `internal`.
//!
//! ## Cache keys
//!
//! Semantically identical requests must share one cache entry, so the
//! key is built from **resolved** values (after defaults are applied),
//! not from the raw JSON text: `{"type":"sweep"}` and a request spelling
//! out every default hit the same entry.

use crate::json::Json;
use sp_bench::Scale;
use sp_cachesim::{CacheConfig, CacheGeometry, ConfigError, HwBackend, MAX_CACHE_BYTES, MAX_WAYS};
use sp_core::{EngineOptions, ParamsError, SpParams};
use sp_workloads::KernelKind;

/// Resolved cache selection for a request (preset plus overrides).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheSpec {
    /// The resolved configuration.
    pub config: CacheConfig,
}

impl CacheSpec {
    fn parse(v: &Json) -> Result<CacheSpec, String> {
        let preset = v.get("cache").and_then(Json::as_str).unwrap_or("scaled");
        let mut config = match preset {
            "scaled" => CacheConfig::scaled_default(),
            "core2" => CacheConfig::core2_q6600(),
            other => return Err(format!("unknown cache preset {other:?}")),
        };
        let l2_kb = uint(v, "l2_kb", "positive")?.unwrap_or(config.l2.size_bytes / 1024);
        let ways = match uint(v, "ways", "positive")? {
            None => config.l2.ways,
            Some(n) => u32::try_from(n).map_err(|_| "ways too large".to_string())?,
        };
        let line = uint(v, "line", "positive")?.unwrap_or(config.l2.line_size);
        config.l2 = l2_kb
            .checked_mul(1024)
            .ok_or(ConfigError::SizeTooLarge)
            .and_then(|bytes| CacheGeometry::try_new(bytes, ways, line))
            .map_err(|e| cache_detail(e, &config))?;
        config.check().map_err(|e| cache_detail(e, &config))?;
        if let Some(pf) = v.get("prefetcher") {
            let name = pf.as_str().ok_or("prefetcher must be a string")?;
            config.hw_backend = HwBackend::parse(name)?;
        }
        if let Some(hw) = boolean(v, "hw_prefetch")? {
            config.hw_prefetchers = hw;
        }
        Ok(CacheSpec { config })
    }

    fn key_fragment(&self) -> String {
        let c = &self.config;
        format!(
            "l2kb={},ways={},line={},hw={},pf={}",
            c.l2.size_bytes / 1024,
            c.l2.ways,
            c.l2.line_size,
            if c.hw_prefetchers { "on" } else { "off" },
            c.hw_backend.name()
        )
    }
}

/// The reply detail for a cache rule a request breaks.
fn cache_detail(e: ConfigError, config: &CacheConfig) -> String {
    match e {
        ConfigError::SizeNotPowerOfTwo => "l2_kb must be a power of two".into(),
        ConfigError::SizeTooLarge => format!("l2_kb must be at most {}", MAX_CACHE_BYTES / 1024),
        ConfigError::WaysNotPowerOfTwo => "ways must be a power of two".into(),
        ConfigError::TooManyWays => format!("ways must be at most {MAX_WAYS}"),
        ConfigError::LineNotPowerOfTwo | ConfigError::LineMismatch => {
            format!("line must match the L1 line size ({})", config.l1.line_size)
        }
        ConfigError::NoFullSet => "cache must hold at least one full set".into(),
        // The presets fix every other field.
        other => other.to_string(),
    }
}

/// The reply detail for an SP-parameter rule `(distance, rp)` breaks.
fn params_detail(e: ParamsError, distance: u32, rp: f64) -> String {
    match e {
        ParamsError::RatioOutOfRange => format!("rp must be in (0, 1], got {rp}"),
        ParamsError::DistanceAtFullRatio => {
            format!("rp 1 means distance 0, got distance {distance}")
        }
        ParamsError::RoundTooLong => format!("distance {distance} is too large at rp {rp}"),
    }
}

/// The simulation-selecting fields shared by `sweep` and `point`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSpec {
    /// Which kernel to simulate (any workload-builder kernel).
    pub bench: KernelKind,
    /// Input scale (`test` or `scaled`).
    pub scale: Scale,
    /// The resolved cache configuration.
    pub cache: CacheSpec,
    /// Prefetch ratio `RP`.
    pub rp: f64,
    /// Engine options (helper model, passes).
    pub opts: EngineOptions,
    /// Attach event sinks to every run, adding per-point lifecycle /
    /// timeliness / pollution-case summaries to the result (and feeding
    /// the daemon's aggregate event counters).
    pub events: bool,
    /// Attach epoch recorders to every run, adding a compact per-window
    /// telemetry series to each point (and feeding the daemon's
    /// `sp_epoch_*` counters). Mutually exclusive with `events` — each
    /// run carries one sink. Epoch payloads are **never cached** (see
    /// [`Request::cache_key`]), so the knob stays out of the key.
    pub epochs: bool,
}

impl SimSpec {
    fn parse(v: &Json) -> Result<SimSpec, String> {
        let bench = parse_bench(v)?;
        let scale = parse_scale(v)?;
        let cache = CacheSpec::parse(v)?;
        let rp = v.get("rp").map_or(Ok(0.5), |n| {
            n.as_f64().ok_or_else(|| "rp must be a number".to_string())
        })?;
        // Distance 0 is valid at every ratio, so this checks the ratio
        // alone; each distance is checked against it once it is known.
        SpParams::try_from_distance_rp(0, rp).map_err(|e| params_detail(e, 0, rp))?;
        let mut opts = EngineOptions::default();
        if let Some(b) = boolean(v, "blocking_helper")? {
            opts.blocking_helper = b;
        }
        if let Some(p) = uint(v, "passes", "positive")? {
            if p == 0 || p > 16 {
                return Err("passes must be in 1..=16".into());
            }
            opts.passes = p as usize;
        }
        let events = boolean(v, "events")?.unwrap_or(false);
        let epochs = boolean(v, "epochs")?.unwrap_or(false);
        if events && epochs {
            return Err("events and epochs are mutually exclusive".into());
        }
        // Accepted and validated so that clients which still send it get
        // the same replies; it has no effect on the simulation.
        if let Some(l) = uint(v, "lanes", "positive")? {
            if l == 0 || l > 64 {
                return Err("lanes must be in 1..=64".into());
            }
        }
        Ok(SimSpec {
            bench,
            scale,
            cache,
            rp,
            opts,
            events,
            epochs,
        })
    }

    /// Reject a distance the spec's ratio cannot schedule, before any
    /// job is queued.
    fn check_distance(&self, distance: u32) -> Result<(), String> {
        SpParams::try_from_distance_rp(distance, self.rp)
            .map(drop)
            .map_err(|e| params_detail(e, distance, self.rp))
    }

    fn key_fragment(&self) -> String {
        format!(
            "bench={}|scale={}|{}|rp={}|blocking={}|passes={}|events={}",
            self.bench.name(),
            scale_name(self.scale),
            self.cache.key_fragment(),
            self.rp,
            if self.opts.blocking_helper {
                "on"
            } else {
                "off"
            },
            self.opts.passes,
            // Event summaries change the result payload, so eventful and
            // plain runs of the same spec must not share a cache entry.
            if self.events { "on" } else { "off" }
        )
    }
}

/// The unsigned integer at `key`, if present; any other value is a
/// `"{key} must be a {what} integer"` error.
fn uint(v: &Json, key: &str, what: &str) -> Result<Option<u64>, String> {
    let bad = || format!("{key} must be a {what} integer");
    v.get(key).map(|n| n.as_u64().ok_or_else(bad)).transpose()
}

/// The boolean at `key`, if present.
fn boolean(v: &Json, key: &str) -> Result<Option<bool>, String> {
    let bad = || format!("{key} must be a boolean");
    v.get(key).map(|b| b.as_bool().ok_or_else(bad)).transpose()
}

fn parse_bench(v: &Json) -> Result<KernelKind, String> {
    KernelKind::parse(v.get("bench").and_then(Json::as_str).unwrap_or("em3d"))
}

fn parse_scale(v: &Json) -> Result<Scale, String> {
    match v.get("scale").and_then(Json::as_str).unwrap_or("test") {
        "test" => Ok(Scale::Test),
        "scaled" => Ok(Scale::Scaled),
        other => Err(format!("unknown scale {other:?}; expected test|scaled")),
    }
}

/// `Scale`'s wire spelling.
pub fn scale_name(s: Scale) -> &'static str {
    match s {
        Scale::Test => "test",
        Scale::Scaled => "scaled",
    }
}

/// What a request asks the daemon to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Liveness probe.
    Ping,
    /// A full distance sweep.
    Sweep {
        /// Simulation selection.
        spec: SimSpec,
        /// The distance grid (default: the benchmark's figure grid).
        distances: Vec<u32>,
    },
    /// A single-distance run.
    Point {
        /// Simulation selection.
        spec: SimSpec,
        /// The prefetch distance.
        distance: u32,
    },
    /// A Table 2 profile (Set Affinity, bound, CALR, RP) for one bench.
    Affinity {
        /// Which kernel.
        bench: KernelKind,
        /// Input scale.
        scale: Scale,
        /// Cache configuration.
        cache: CacheSpec,
    },
    /// Occupy a worker for `ms` milliseconds (load/backpressure testing).
    Burn {
        /// How long to spin.
        ms: u64,
    },
    /// Metrics snapshot (handled inline, never queued).
    Stats,
    /// Prometheus text exposition of the daemon counters, latency
    /// histogram, and aggregate event totals (handled inline).
    Metrics,
    /// Graceful drain-and-exit.
    Shutdown,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Option<Json>,
    /// Per-request deadline override, milliseconds.
    pub timeout_ms: Option<u64>,
    /// The command.
    pub cmd: Command,
}

impl Request {
    /// Parse one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line)?;
        let id = v.get("id").cloned();
        let timeout_ms = uint(&v, "timeout_ms", "non-negative")?;
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or("request needs a string \"type\" field")?;
        let cmd = match kind {
            "ping" => Command::Ping,
            "stats" => Command::Stats,
            "metrics" => Command::Metrics,
            "shutdown" => Command::Shutdown,
            "burn" => {
                let ms = uint(&v, "ms", "non-negative")?.unwrap_or(10);
                if ms > 60_000 {
                    return Err("burn ms capped at 60000".into());
                }
                Command::Burn { ms }
            }
            "affinity" => Command::Affinity {
                bench: parse_bench(&v)?,
                scale: parse_scale(&v)?,
                cache: CacheSpec::parse(&v)?,
            },
            "point" => {
                let spec = SimSpec::parse(&v)?;
                let distance = match uint(&v, "distance", "non-negative")? {
                    None => 8,
                    Some(d) => u32::try_from(d).map_err(|_| "distance too large".to_string())?,
                };
                spec.check_distance(distance)?;
                Command::Point { spec, distance }
            }
            "sweep" => {
                let spec = SimSpec::parse(&v)?;
                let distances = match v.get("distances") {
                    None => sp_bench::distances_for_kernel(spec.bench).to_vec(),
                    Some(ds) => {
                        let items = ds.as_arr().ok_or("distances must be an array")?;
                        if items.is_empty() || items.len() > 64 {
                            return Err("distances must hold 1..=64 entries".into());
                        }
                        items
                            .iter()
                            .map(|d| {
                                d.as_u64()
                                    .and_then(|d| u32::try_from(d).ok())
                                    .ok_or_else(|| "distances entries must be integers".to_string())
                            })
                            .collect::<Result<Vec<u32>, String>>()?
                    }
                };
                for &d in &distances {
                    spec.check_distance(d)?;
                }
                Command::Sweep { spec, distances }
            }
            other => return Err(format!("unknown request type {other:?}")),
        };
        Ok(Request {
            id,
            timeout_ms,
            cmd,
        })
    }

    /// The wire `type` of this request (for per-kind metrics).
    pub fn kind(&self) -> &'static str {
        match self.cmd {
            Command::Ping => "ping",
            Command::Sweep { .. } => "sweep",
            Command::Point { .. } => "point",
            Command::Affinity { .. } => "affinity",
            Command::Burn { .. } => "burn",
            Command::Stats => "stats",
            Command::Metrics => "metrics",
            Command::Shutdown => "shutdown",
        }
    }

    /// The canonical cache key, if this request is cacheable. Built from
    /// resolved values so default-spelling variants share an entry;
    /// `burn`/`stats`/`ping`/`shutdown` are never cached. Epoch-series
    /// requests bypass the cache entirely — the `epochs` knob is
    /// excluded from the key, and sharing an entry with the plain spec
    /// would serve a series-free payload — so they stay uncached rather
    /// than key-split.
    pub fn cache_key(&self) -> Option<String> {
        match &self.cmd {
            Command::Sweep { spec, .. } | Command::Point { spec, .. } if spec.epochs => None,
            Command::Sweep { spec, distances } => {
                let ds: Vec<String> = distances.iter().map(u32::to_string).collect();
                Some(format!("sweep|{}|ds={}", spec.key_fragment(), ds.join(",")))
            }
            Command::Point { spec, distance } => {
                Some(format!("point|{}|d={distance}", spec.key_fragment()))
            }
            Command::Affinity {
                bench,
                scale,
                cache,
            } => Some(format!(
                "affinity|bench={}|scale={}|{}",
                bench.name(),
                scale_name(*scale),
                cache.key_fragment()
            )),
            _ => None,
        }
    }
}

/// Encode the success envelope around an already-encoded `result`
/// payload. The payload is spliced in verbatim, so a cached result is
/// byte-identical to the miss that produced it.
pub fn ok_response(id: &Option<Json>, cached: bool, micros: u64, result: &str) -> String {
    format!(
        "{{\"id\":{},\"ok\":true,\"cached\":{cached},\"micros\":{micros},\"result\":{result}}}",
        id.as_ref().map_or_else(|| "null".to_string(), Json::encode)
    )
}

/// Splice a `"corr":"cN"` field into an encoded reply object, right
/// after the opening brace. The daemon applies this to **every** reply
/// so clients can join a slow response against the access log and
/// `spt trace` spans by correlation ID. Non-object payloads (there are
/// none on the reply path) pass through untouched.
pub fn with_corr(reply: &str, corr: sp_obs::CorrId) -> String {
    match reply.strip_prefix('{') {
        Some(rest) if !rest.starts_with('}') => format!("{{\"corr\":\"{corr}\",{rest}"),
        _ => reply.to_string(),
    }
}

/// Encode an error envelope.
pub fn error_response(id: &Option<Json>, error: &str, detail: &str) -> String {
    Json::obj()
        .push("id", id.clone().unwrap_or(Json::Null))
        .push("ok", Json::Bool(false))
        .push("error", Json::str(error))
        .push("detail", Json::str(detail))
        .encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_sweep_request_gets_all_defaults() {
        let r = Request::parse("{\"type\":\"sweep\"}").unwrap();
        assert_eq!(r.kind(), "sweep");
        assert_eq!(r.id, None);
        match &r.cmd {
            Command::Sweep { spec, distances } => {
                assert_eq!(spec.bench, KernelKind::Em3d);
                assert_eq!(spec.scale, Scale::Test);
                assert_eq!(spec.rp, 0.5);
                assert_eq!(spec.opts, EngineOptions::default());
                assert_eq!(spec.cache.config.hw_backend, HwBackend::StreamerDpl);
                assert_eq!(distances, sp_bench::distances_for_kernel(KernelKind::Em3d));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn lanes_key_is_accepted_and_changes_nothing() {
        let at = |lanes: &str| {
            Request::parse(&format!(
                "{{\"type\":\"sweep\",\"distances\":[2,16]{lanes}}}"
            ))
            .unwrap()
        };
        let plain = at("");
        let laned = at(",\"lanes\":8");
        // Same request, same cache entry, same payload bytes.
        assert_eq!(plain.cache_key(), laned.cache_key());
        let engine = crate::engine::SimEngine::new();
        assert_eq!(
            engine.execute(&plain.cmd).unwrap(),
            engine.execute(&laned.cmd).unwrap()
        );
        for bad in ["0", "65", "\"x\""] {
            let line = format!("{{\"type\":\"sweep\",\"lanes\":{bad}}}");
            assert!(Request::parse(&line).is_err(), "lanes {bad} must reject");
        }
    }

    #[test]
    fn every_kernel_and_backend_is_addressable() {
        for k in KernelKind::ALL {
            for b in HwBackend::ALL {
                let line = format!(
                    "{{\"type\":\"sweep\",\"bench\":\"{}\",\"prefetcher\":\"{}\",\
                     \"distances\":[2]}}",
                    k.flag(),
                    b.name()
                );
                let r = Request::parse(&line).unwrap();
                let key = r.cache_key().unwrap();
                assert!(
                    key.contains(&format!("bench={}", k.name())),
                    "key {key} lacks the kernel"
                );
                assert!(
                    key.contains(&format!("pf={}", b.name())),
                    "key {key} lacks the backend"
                );
                match r.cmd {
                    Command::Sweep { spec, .. } => {
                        assert_eq!(spec.bench, k);
                        assert_eq!(spec.cache.config.hw_backend, b);
                    }
                    other => panic!("wrong command {other:?}"),
                }
            }
        }
    }

    #[test]
    fn unknown_prefetchers_are_rejected_listing_the_valid_set() {
        let err = Request::parse("{\"type\":\"sweep\",\"prefetcher\":\"markov\"}").unwrap_err();
        assert!(err.contains("unknown prefetcher"), "{err}");
        for b in HwBackend::ALL {
            assert!(err.contains(b.name()), "{err} missing {}", b.name());
        }
    }

    #[test]
    fn default_spelling_variants_share_a_cache_key() {
        let implicit = Request::parse("{\"type\":\"sweep\",\"distances\":[2,4]}").unwrap();
        let explicit = Request::parse(
            "{\"id\":9,\"timeout_ms\":50,\"type\":\"sweep\",\"bench\":\"em3d\",\
             \"scale\":\"test\",\"rp\":0.5,\"cache\":\"scaled\",\"l2_kb\":256,\
             \"ways\":16,\"line\":64,\"hw_prefetch\":true,\"blocking_helper\":true,\
             \"passes\":1,\"distances\":[2,4]}",
        )
        .unwrap();
        assert_eq!(implicit.cache_key(), explicit.cache_key());
        let key = implicit.cache_key().unwrap();
        assert!(key.starts_with("sweep|bench=EM3D|scale=test|"), "got {key}");
        assert!(key.ends_with("|ds=2,4"), "got {key}");
    }

    #[test]
    fn semantic_differences_change_the_key() {
        let base = Request::parse("{\"type\":\"sweep\",\"distances\":[2,4]}").unwrap();
        for variant in [
            "{\"type\":\"sweep\",\"distances\":[2,8]}",
            "{\"type\":\"sweep\",\"distances\":[2,4],\"bench\":\"mcf\"}",
            "{\"type\":\"sweep\",\"distances\":[2,4],\"rp\":0.25}",
            "{\"type\":\"sweep\",\"distances\":[2,4],\"hw_prefetch\":false}",
            "{\"type\":\"sweep\",\"distances\":[2,4],\"l2_kb\":128}",
            "{\"type\":\"sweep\",\"distances\":[2,4],\"passes\":2}",
            "{\"type\":\"sweep\",\"distances\":[2,4],\"bench\":\"bfs\"}",
            "{\"type\":\"sweep\",\"distances\":[2,4],\"prefetcher\":\"perceptron\"}",
            "{\"type\":\"sweep\",\"distances\":[2,4],\"events\":true}",
            "{\"type\":\"point\",\"distance\":2}",
        ] {
            let v = Request::parse(variant).unwrap();
            assert_ne!(base.cache_key(), v.cache_key(), "collision for {variant}");
        }
    }

    #[test]
    fn metrics_requests_parse_and_stay_uncacheable() {
        let r = Request::parse("{\"type\":\"metrics\"}").unwrap();
        assert_eq!(r.kind(), "metrics");
        assert_eq!(r.cmd, Command::Metrics);
        assert_eq!(r.cache_key(), None, "metrics must never be cached");
    }

    #[test]
    fn events_flag_defaults_off_and_rejects_non_booleans() {
        let r = Request::parse("{\"type\":\"point\"}").unwrap();
        match r.cmd {
            Command::Point { spec, .. } => assert!(!spec.events),
            other => panic!("wrong command {other:?}"),
        }
        let r = Request::parse("{\"type\":\"point\",\"events\":true}").unwrap();
        match r.cmd {
            Command::Point { spec, .. } => assert!(spec.events),
            other => panic!("wrong command {other:?}"),
        }
        assert!(Request::parse("{\"type\":\"point\",\"events\":\"yes\"}").is_err());
    }

    #[test]
    fn epochs_flag_defaults_off_bypasses_the_cache_and_rejects_combos() {
        let r = Request::parse("{\"type\":\"point\"}").unwrap();
        match r.cmd {
            Command::Point { spec, .. } => assert!(!spec.epochs),
            other => panic!("wrong command {other:?}"),
        }
        // Epoch requests carry a series the plain payload lacks; instead
        // of splitting the key they bypass the result cache entirely.
        for line in [
            "{\"type\":\"point\",\"epochs\":true}",
            "{\"type\":\"sweep\",\"distances\":[2,4],\"epochs\":true}",
        ] {
            let r = Request::parse(line).unwrap();
            match &r.cmd {
                Command::Point { spec, .. } | Command::Sweep { spec, .. } => {
                    assert!(spec.epochs)
                }
                other => panic!("wrong command {other:?}"),
            }
            assert_eq!(r.cache_key(), None, "epoch request must not be cached");
        }
        assert!(Request::parse("{\"type\":\"point\",\"epochs\":\"yes\"}").is_err());
        assert!(
            Request::parse("{\"type\":\"point\",\"epochs\":true,\"events\":true}").is_err(),
            "one sink per run: events+epochs must reject"
        );
    }

    #[test]
    fn non_simulation_requests_are_uncacheable() {
        for (line, kind) in [
            ("{\"type\":\"ping\"}", "ping"),
            ("{\"type\":\"stats\"}", "stats"),
            ("{\"type\":\"shutdown\"}", "shutdown"),
            ("{\"type\":\"burn\",\"ms\":5}", "burn"),
        ] {
            let r = Request::parse(line).unwrap();
            assert_eq!(r.kind(), kind);
            assert_eq!(r.cache_key(), None, "{kind} must not be cached");
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"type\":42}",
            "{\"type\":\"warp\"}",
            "{\"type\":\"sweep\",\"bench\":\"quake\"}",
            "{\"type\":\"sweep\",\"scale\":\"huge\"}",
            "{\"type\":\"sweep\",\"rp\":0}",
            "{\"type\":\"sweep\",\"rp\":1.5}",
            "{\"type\":\"sweep\",\"distances\":[]}",
            "{\"type\":\"sweep\",\"distances\":\"2\"}",
            "{\"type\":\"sweep\",\"cache\":\"l3\"}",
            "{\"type\":\"sweep\",\"prefetcher\":\"markov\"}",
            "{\"type\":\"sweep\",\"prefetcher\":42}",
            "{\"type\":\"sweep\",\"passes\":0}",
            "{\"type\":\"sweep\",\"line\":32}",
            "{\"type\":\"burn\",\"ms\":99999999}",
            "{\"type\":\"point\",\"distance\":-1}",
            "{\"type\":\"point\",\"distance\":8,\"rp\":1}",
            "{\"type\":\"sweep\",\"distances\":[0,4],\"rp\":1}",
            "{\"type\":\"point\",\"distance\":4294967295}",
            "{\"type\":\"sweep\",\"ways\":4294967300}",
            "{\"type\":\"sweep\",\"ways\":256}",
            "{\"type\":\"sweep\",\"l2_kb\":3}",
            "{\"type\":\"sweep\",\"l2_kb\":524288}",
            "{\"type\":\"sweep\",\"l2_kb\":18014398509481984}",
        ] {
            assert!(Request::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn cache_and_ratio_rules_keep_their_reply_details() {
        for (line, detail) in [
            ("\"l2_kb\":0", "l2_kb must be a power of two"),
            ("\"l2_kb\":3,\"ways\":3", "l2_kb must be a power of two"),
            ("\"ways\":0", "ways must be a power of two"),
            ("\"ways\":3,\"line\":7", "ways must be a power of two"),
            ("\"line\":7", "line must match the L1 line size (64)"),
            ("\"line\":128", "line must match the L1 line size (64)"),
            (
                "\"l2_kb\":1,\"ways\":64",
                "cache must hold at least one full set",
            ),
            ("\"l2_kb\":524288", "l2_kb must be at most 262144"),
            ("\"ways\":4294967300", "ways too large"),
            ("\"ways\":256", "ways must be at most 128"),
            ("\"rp\":0", "rp must be in (0, 1], got 0"),
            ("\"rp\":1.5", "rp must be in (0, 1], got 1.5"),
            ("\"rp\":1", "rp 1 means distance 0, got distance 8"),
            (
                "\"distance\":4294967295",
                "distance 4294967295 is too large at rp 0.5",
            ),
        ] {
            let req = format!("{{\"type\":\"point\",{line}}}");
            assert_eq!(Request::parse(&req).unwrap_err(), detail, "{req}");
        }
    }

    #[test]
    fn id_and_timeout_are_carried() {
        let r = Request::parse("{\"id\":\"abc\",\"timeout_ms\":250,\"type\":\"ping\"}").unwrap();
        assert_eq!(r.id, Some(Json::Str("abc".into())));
        assert_eq!(r.timeout_ms, Some(250));
    }

    #[test]
    fn response_envelopes_are_well_formed() {
        let ok = ok_response(&Some(Json::num(3)), true, 120, "{\"x\":1}");
        let v = Json::parse(&ok).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(
            v.get("result")
                .and_then(|r| r.get("x"))
                .and_then(Json::as_u64),
            Some(1)
        );
        let err = error_response(&None, "busy", "queue full");
        let v = Json::parse(&err).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("error").and_then(Json::as_str), Some("busy"));
        assert_eq!(v.get("id"), Some(&Json::Null));
    }

    #[test]
    fn with_corr_splices_into_both_envelopes() {
        let corr = sp_obs::CorrId::next_root();
        let tag = format!("{corr}");
        let ok = with_corr(&ok_response(&None, false, 9, "{\"x\":1}"), corr);
        let v = Json::parse(&ok).unwrap();
        assert_eq!(v.get("corr").and_then(Json::as_str), Some(tag.as_str()));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        let err = with_corr(&error_response(&None, "busy", "full"), corr);
        let v = Json::parse(&err).unwrap();
        assert_eq!(v.get("corr").and_then(Json::as_str), Some(tag.as_str()));
        // Non-object payloads pass through untouched.
        assert_eq!(with_corr("plain", corr), "plain");
        assert_eq!(with_corr("{}", corr), "{}");
    }
}
