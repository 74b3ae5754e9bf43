//! The serving probe of the `fig12_cold` traced run: an in-process
//! campaign server (`snoc_bench::serve`) on loopback with a fresh cache
//! directory, driven by one closed-loop client.
//!
//! Set-up binds the server and fills its cache with one cold submit of
//! the `fig12_cold` spec. The loop then resubmits that spec (every
//! point a cache hit, zero simulation), except that one submit in
//! [`ROUND`] is a small spec with a fresh seed, which always misses: it
//! simulates and appends to the cache. Hit reads run beside miss
//! writes, so a read-path gain that costs the write path shows.
//!
//! This is a traced probe rather than a workload of its own: a hit
//! round trip is mostly cross-thread wake-ups of the streamed lines,
//! and on the shared 2-core reference host their cost doubled for
//! minutes at a time, so its end-to-end time could not be held steady.

use crate::campaign::{self, ReplayTotals};
use crate::ledger::expect_eq;
use crate::trace::Tracer;
use crate::util::{derive_seed, digest, median, quantile, ScratchDir};
use crate::{pinned, RunReport};
use snoc_bench::serve::{self, Server};
use snoc_core::json;
use snoc_core::{Campaign, CampaignSpec, PointCache, PointCoord, SetupSpec};
use snoc_traffic::TrafficPattern;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seconds of closed-loop submits.
pub const LOOP_SECONDS: f64 = 4.0;
/// Submits per round; the last of each round misses.
pub const ROUND: usize = 10;
/// Timed repetitions of the in-process spec parse.
const PARSE_REPS: usize = 20;

/// The always-missing spec of miss number `i`: SMART Slim NoC, uniform
/// random traffic at two loads, with a base seed unique to `(seed, i)`.
#[must_use]
pub fn miss_spec(seed: u64, i: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new("serve_miss");
    spec.setups = vec![SetupSpec {
        smart: true,
        ..SetupSpec::new("sn_s")
    }];
    spec.patterns = vec![TrafficPattern::Random];
    spec.loads = vec![0.016, 0.06];
    (spec.warmup, spec.measure) = campaign::WINDOWS;
    spec.base_seed = derive_seed(seed, 10_000 + i);
    spec
}

/// One completed submit as the client saw it.
#[derive(Debug, Clone)]
pub struct Submitted {
    /// When the request was sent.
    pub start: Instant,
    /// Round-trip time to the end of the stream.
    pub rtt: Duration,
    /// Time to the first `point` line.
    pub ttfb: Option<Duration>,
    /// The server's counters and point count.
    pub outcome: serve::SubmitOutcome,
    /// The `done` line's `result` object, as sent.
    pub result: String,
}

/// Submits `spec_json` to `addr` and captures the `done` result.
///
/// # Errors
///
/// An HTTP error, a malformed stream, or a missing `done` line.
pub fn submit(addr: &str, spec_json: &str) -> Result<Submitted, String> {
    let start = Instant::now();
    let mut ttfb = None;
    let mut done = None;
    let outcome = serve::submit(addr, spec_json, |line| {
        if ttfb.is_none() && line.starts_with("{\"event\": \"point\"") {
            ttfb = Some(start.elapsed());
        } else if line.starts_with("{\"event\": \"done\"") {
            done = Some(line.to_string());
        }
    })
    .map_err(|e| format!("submit: {e}"))?;
    let rtt = start.elapsed();
    let done = done.ok_or("no done line")?;
    let result = done
        .split_once("\"result\": ")
        .and_then(|(_, r)| r.strip_suffix('}'))
        .ok_or("done line without a result")?
        .to_string();
    Ok(Submitted {
        start,
        rtt,
        ttfb,
        outcome,
        result,
    })
}

/// Checks a resubmission of the cold spec: every point a hit, and a
/// result byte-identical to the cold one.
///
/// # Errors
///
/// Names the first difference.
pub fn check_hit(hit: &Submitted, cold: &Submitted) -> Result<(), String> {
    expect_eq("hit points", hit.outcome.points, cold.outcome.points)?;
    expect_eq(
        "hit cache_hits",
        hit.outcome.cache_hits,
        cold.outcome.points,
    )?;
    expect_eq("hit cache_misses", hit.outcome.cache_misses, 0)?;
    if hit.result != cold.result {
        return Err("hit result differs from the cold result".into());
    }
    Ok(())
}

/// Checks a first submit of a spec: every point simulated.
///
/// # Errors
///
/// Names the first difference.
pub fn check_miss(miss: &Submitted) -> Result<(), String> {
    if miss.outcome.points == 0 {
        return Err("no points".into());
    }
    expect_eq("miss cache_hits", miss.outcome.cache_hits, 0)?;
    expect_eq(
        "miss cache_misses",
        miss.outcome.cache_misses,
        miss.outcome.points,
    )
}

/// A running server with its own cache directory. The server thread
/// serves until the process exits (the server API has no shutdown); the
/// directory is removed when this is dropped.
struct Live {
    addr: String,
    dir: ScratchDir,
}

fn start_server() -> Result<Live, String> {
    let dir = ScratchDir::new().map_err(|e| format!("cache dir: {e}"))?;
    let server = Server::bind("127.0.0.1:0", Some(dir.as_str()), 0).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    std::thread::spawn(move || server.run());
    Ok(Live { addr, dir })
}

/// Client-side latencies of the loop.
#[derive(Debug, Default)]
struct Loop {
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    ttfb_ms: Vec<f64>,
    round_s: Vec<f64>,
    first_miss: Option<(CampaignSpec, Submitted)>,
}

/// Digests the probe checks its outputs against, when pinned.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pins<'a> {
    /// The cold fill's `done` result.
    pub cold: Option<&'a str>,
    /// The first miss's `done` result.
    pub miss0: Option<&'a str>,
}

impl Pins<'static> {
    /// The digests pinned for `seed`.
    #[must_use]
    pub fn for_seed(seed: u64) -> Self {
        Pins {
            cold: pinned::digest("serve.cold", seed),
            miss0: pinned::digest("serve.miss0", seed),
        }
    }
}

/// Runs the serving probe into `report` (the `fig12_cold` traced run):
/// set-up, [`LOOP_SECONDS`] of the closed loop under spans, the miss
/// checks, and the in-process spec, cache and JSON calls of a hit.
pub fn probe(report: &mut RunReport, seed: u64, spec: &CampaignSpec, pins: Pins<'_>) {
    let spec_json = spec.to_json();
    let t = Instant::now();
    let built = report.ledger.op("serve set-up", || {
        let server = start_server()?;
        let cold = submit(&server.addr, &spec_json)?;
        check_miss(&cold)?;
        pinned::check("serve.cold", &digest(cold.result.as_bytes()), pins.cold)?;
        Ok((server, cold))
    });
    let setup_s = t.elapsed().as_secs_f64();
    let Some((server, cold)) = built else {
        return;
    };

    let mut lp = Loop::default();
    closed_loop(
        report,
        seed,
        &server.addr,
        &spec_json,
        &cold,
        &mut lp,
        pins.miss0,
    );
    report.note(format!(
        "serve: set-up {setup_s:.3} s; {} rounds, round p50 {:.4} s; hit_rtt p50 {:.3} ms \
         p95 {:.3} ms (n={}); miss_rtt p50 {:.3} ms (n={}); ttfb p50 {:.3} ms; \
         {} points per hit; digests cold {} miss0 {}",
        lp.round_s.len(),
        median(&lp.round_s),
        median(&lp.hit_ms),
        quantile(&lp.hit_ms, 0.95),
        lp.hit_ms.len(),
        median(&lp.miss_ms),
        lp.miss_ms.len(),
        median(&lp.ttfb_ms),
        cold.outcome.points,
        digest(cold.result.as_bytes()),
        lp.first_miss
            .as_ref()
            .map_or_else(|| "-".to_string(), |(_, m)| digest(m.result.as_bytes())),
    ));

    // Checks: the first miss result equals an in-process run of its
    // spec byte for byte, and its points replay with conservation.
    if let Some((miss, sub)) = lp.first_miss.take() {
        let campaign = report.ledger.op("miss set-up", || {
            Campaign::from_spec(&miss).map_err(|e| e.to_string())
        });
        if let Some(campaign) = campaign {
            let result = campaign.run();
            report.ledger.op("miss vs in-process", || {
                if json::compact(&result.to_json()) == sub.result {
                    Ok(())
                } else {
                    Err("server miss result differs from an in-process run".into())
                }
            });
            let all: Vec<usize> = (0..result.points.len()).collect();
            let _: ReplayTotals = campaign::replay(report, &campaign, &result, &all);
        }
    }

    let l = &mut report.layers;
    l.set("serve.hit_rtt_p50_ms", median(&lp.hit_ms));
    l.set("serve.hit_rtt_p95_ms", quantile(&lp.hit_ms, 0.95));
    l.set("serve.miss_rtt_p50_ms", median(&lp.miss_ms));
    l.set("serve.hit_samples", lp.hit_ms.len() as f64);
    l.set("serve.ttfb_ms", median(&lp.ttfb_ms));
    in_process_layers(report, spec, &server, &cold, median(&lp.hit_ms));
}

/// The closed loop: one submit at a time for [`LOOP_SECONDS`], in whole
/// rounds.
fn closed_loop(
    report: &mut RunReport,
    seed: u64,
    addr: &str,
    spec_json: &str,
    cold: &Submitted,
    lp: &mut Loop,
    pinned_miss: Option<&str>,
) {
    let mut next_miss = 0;
    let start = Instant::now();
    loop {
        let mut round = 0.0;
        for k in 0..ROUND {
            let tr = &mut report.tracer;
            if k + 1 < ROUND {
                let hit = report.ledger.op("hit submit", || {
                    let hit = traced_submit(tr, "serve.submit.hit", addr, spec_json)?;
                    check_hit(&hit, cold)?;
                    Ok(hit)
                });
                if let Some(hit) = hit {
                    round += hit.rtt.as_secs_f64();
                    lp.hit_ms.push(hit.rtt.as_secs_f64() * 1e3);
                    lp.ttfb_ms.extend(hit.ttfb.map(|d| d.as_secs_f64() * 1e3));
                }
            } else {
                let miss = miss_spec(seed, next_miss);
                let pin = if next_miss == 0 { pinned_miss } else { None };
                next_miss += 1;
                let text = miss.to_json();
                let sub = report.ledger.op("miss submit", || {
                    let sub = traced_submit(tr, "serve.submit.miss", addr, &text)?;
                    check_miss(&sub)?;
                    pinned::check("serve.miss0", &digest(sub.result.as_bytes()), pin)?;
                    Ok(sub)
                });
                if let Some(sub) = sub {
                    round += sub.rtt.as_secs_f64();
                    lp.miss_ms.push(sub.rtt.as_secs_f64() * 1e3);
                    if lp.first_miss.is_none() {
                        lp.first_miss = Some((miss, sub));
                    }
                }
            }
        }
        lp.round_s.push(round);
        if start.elapsed().as_secs_f64() >= LOOP_SECONDS || report.ledger.failed() > 3 {
            break;
        }
    }
}

fn traced_submit(
    tr: &mut Tracer,
    name: &'static str,
    addr: &str,
    spec_json: &str,
) -> Result<Submitted, String> {
    tr.span(name, |tr| {
        let sub = submit(addr, spec_json)?;
        if let Some(ttfb) = sub.ttfb {
            tr.record("serve.ttfb", sub.start, ttfb);
        }
        Ok(sub)
    })
}

/// Times, in process, the spec, cache and JSON calls the server makes
/// for a hit submit of `spec`, against the live server's filled cache.
fn in_process_layers(
    report: &mut RunReport,
    spec: &CampaignSpec,
    server: &Live,
    cold: &Submitted,
    hit_p50_ms: f64,
) {
    let text = spec.to_json();
    let tr = &mut report.tracer;
    let done = report.ledger.op("in-process hit path", || {
        for _ in 0..PARSE_REPS {
            tr.span("spec.from_json", |_| CampaignSpec::from_json(&text))
                .map_err(|e| e.to_string())?;
        }
        let campaign = tr
            .span("spec.campaign_from_spec", |_| Campaign::from_spec(spec))
            .map_err(|e| e.to_string())?;
        let cache = tr
            .span("cache.open", |_| PointCache::open(server.dir.path()))
            .map_err(|e| e.to_string())?;
        let campaign = campaign.with_cache(Arc::new(cache));
        let result = tr.span("sweep.warm_run", |_| campaign.run());
        expect_eq("in-process warm misses", result.cache_misses, 0)?;
        let bytes = tr.span("json.result_to_json", |_| json::compact(&result.to_json()));
        if bytes != cold.result {
            return Err("in-process warm result differs from the cold result".into());
        }
        let cache = campaign.cache().expect("cache attached");
        let canon: Vec<(String, String)> = spec
            .setups
            .iter()
            .map(|s| (s.name.clone(), s.canonical_json()))
            .collect();
        let mut entries = Vec::new();
        for p in &result.points {
            let setup_spec = &canon
                .iter()
                .find(|(n, _)| *n == p.setup)
                .ok_or("point of an unknown setup")?
                .1;
            let coord = PointCoord {
                setup_spec,
                pattern: &p.pattern,
                load: p.load,
                warmup: spec.warmup,
                measure: spec.measure,
                base_seed: spec.base_seed,
                shards: spec.shards,
                tech: None,
            };
            let key = tr.span("cache.key", |_| cache.key(&coord));
            let hit = tr
                .span("cache.get", |_| cache.get(&key))
                .ok_or("cached point missing")?;
            entries.push((key, hit));
        }
        let fresh = ScratchDir::new().map_err(|e| e.to_string())?;
        let sink = PointCache::open(fresh.path()).map_err(|e| e.to_string())?;
        for (key, point) in &entries {
            tr.span("cache.put", |_| sink.put(key, point))
                .map_err(|e| e.to_string())?;
        }
        Ok(entries.len())
    });
    let tr = &report.tracer;
    let mean = |name: &str| {
        let d = tr.durations_us(name);
        d.iter().sum::<f64>() / d.len().max(1) as f64
    };
    let from_json_us = median(&tr.durations_us("spec.from_json"));
    let from_spec_ms = tr.total_us("spec.campaign_from_spec") / 1e3;
    let (key_us, get_us) = (mean("cache.key"), mean("cache.get"));
    let to_json_ms = tr.total_us("json.result_to_json") / 1e3;
    let n = done.unwrap_or(0) as f64;
    let in_process_ms =
        from_json_us / 1e3 + from_spec_ms + n * (key_us + get_us) / 1e3 + to_json_ms;
    let l = &mut report.layers;
    l.set("spec.from_json_us", from_json_us);
    l.set("spec.campaign_from_spec_ms", from_spec_ms);
    l.set("cache.open_ms", tr.total_us("cache.open") / 1e3);
    l.set("cache.key_us", key_us);
    l.set("cache.get_us", get_us);
    l.set("cache.put_us", mean("cache.put"));
    l.set("json.result_to_json_ms", to_json_ms);
    l.set("serve.other_ms", hit_p50_ms - in_process_ms);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Ledger;
    use crate::RunConfig;

    fn tiny(seed: u64) -> CampaignSpec {
        let mut spec = miss_spec(seed, 0);
        (spec.warmup, spec.measure) = (20, 60);
        spec
    }

    #[test]
    fn warm_resubmit_matches_and_a_perturbed_one_fails() {
        let server = start_server().unwrap();
        let text = tiny(1).to_json();
        let cold = submit(&server.addr, &text).unwrap();
        check_miss(&cold).unwrap();
        let hit = submit(&server.addr, &text).unwrap();
        check_hit(&hit, &cold).unwrap();
        assert!(
            check_miss(&hit).is_err(),
            "a resubmit must not count as a miss"
        );
        let mut bad = hit.clone();
        bad.result.insert(1, ' ');
        assert!(check_hit(&bad, &cold).is_err());
        let mut short = hit;
        short.outcome.cache_hits -= 1;
        assert!(check_hit(&short, &cold).is_err());
    }

    #[test]
    fn an_http_error_is_a_failed_op() {
        let server = start_server().unwrap();
        let mut ledger = Ledger::default();
        assert!(ledger
            .op("bad spec", || submit(&server.addr, "{not json"))
            .is_none());
        assert_eq!(ledger.failed(), 1);
        assert!(ledger.failures()[0].contains("400"));
    }

    #[test]
    fn miss_specs_derive_from_the_seed() {
        assert_eq!(miss_spec(3, 1), miss_spec(3, 1));
        assert_ne!(miss_spec(3, 1).base_seed, miss_spec(3, 2).base_seed);
        assert_ne!(miss_spec(3, 1).base_seed, miss_spec(4, 1).base_seed);
    }

    #[test]
    fn held_out_seed_probe_passes_its_checks() {
        let cfg = RunConfig {
            seed: 777,
            seconds: 0.0,
            trace: true,
        };
        let mut spec = crate::campaign::fig12_spec(cfg.seed);
        spec.setups.truncate(2);
        spec.patterns.truncate(1);
        (spec.warmup, spec.measure) = (20, 60);
        let mut report = RunReport::new(&cfg);
        probe(&mut report, cfg.seed, &spec, Pins::for_seed(cfg.seed));
        assert_eq!(report.ledger.failed(), 0, "{:?}", report.ledger.failures());
        for name in ["cache.get_us", "spec.from_json_us", "serve.hit_rtt_p50_ms"] {
            assert!(report.layers.get(name) > 0.0, "{name}");
        }
    }
}
