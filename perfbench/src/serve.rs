//! The resident daemon over real TCP: an in-process `Daemon` (default
//! configuration with a single solver, two workers) and two `DaemonClient`
//! connections from this process.
//!
//! * The **hits** connection runs a closed loop over designs warmed during
//!   set-up: one `map` per hit design, then one `ping`, per cycle.
//! * The **cold** connection walks a seeded shuffle of every design class
//!   that was not warmed, once, so its synthesis and cache stores run beside
//!   the reads on the hits connection. The hits loop runs until the cold walk
//!   is done, so every run measures the same cold designs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use lakeroad::cache::spec_fingerprint;
use lakeroad::MapConfig;
use lr_arch::ArchName;
use lr_serve::{Daemon, DaemonClient, DaemonConfig, Json};

use crate::dsp::Design;
use crate::stats::Rng;

/// Warmed during set-up and requested on every hits cycle: successes on all
/// three architectures, so each hit replays and re-verifies a stored mapping.
const HIT_DESIGNS: [(&str, ArchName); 5] = [
    ("preadd_mul_and_w8_s1", ArchName::XilinxUltraScalePlus),
    ("mul_add_w8_s0", ArchName::XilinxUltraScalePlus),
    ("presub_mul_w8_s2", ArchName::XilinxUltraScalePlus),
    ("mul_xor_w8_s1", ArchName::LatticeEcp5),
    ("mul_w8_s2", ArchName::IntelCyclone10Lp),
];

/// Hits every loop reaches before it may stop: enough for a p90 with ten
/// samples above it, and (at one ping per cycle) twenty pings for a p50.
const MIN_HITS: usize = 100;

fn wire_arch(arch: ArchName) -> &'static str {
    match arch {
        ArchName::XilinxUltraScalePlus => "xilinx",
        ArchName::LatticeEcp5 => "lattice",
        ArchName::IntelCyclone10Lp => "intel",
        ArchName::Sofa => "sofa",
    }
}

fn map_request(bench: &str, arch: ArchName) -> String {
    Json::obj([
        ("kind", Json::str("map")),
        ("arch", Json::str(wire_arch(arch))),
        ("template", Json::str("dsp")),
        ("bench", Json::str(bench)),
    ])
    .render()
}

/// The part of a `mapped` response a repeated request must reproduce.
#[derive(Debug, Clone, PartialEq)]
struct Answer {
    verdict: Option<String>,
    resources: Option<Json>,
}

impl Answer {
    fn of(doc: &Json) -> Answer {
        Answer {
            verdict: doc.get(&["verdict"]).and_then(Json::as_str).map(str::to_string),
            resources: doc.get(&["resources"]).cloned(),
        }
    }

    fn is_verdict(&self) -> bool {
        matches!(self.verdict.as_deref(), Some("success" | "unsat"))
    }
}

/// A bound daemon with both connections open and the hit designs warm.
pub struct Served {
    daemon: Daemon,
    hits: DaemonClient,
    cold: DaemonClient,
    /// Hit payloads with the answer the cold request for each gave.
    warmed: Vec<(String, Answer)>,
    /// One design of each structure class not yet cached, in seeded order:
    /// the cold requests cover the same designs on every seed, and every one
    /// of them is a cache miss.
    cold_queue: Vec<(String, String)>,
}

/// What one measurement window observed.
#[derive(Default)]
pub struct Window {
    pub wall_s: f64,
    pub hit_ms: Vec<f64>,
    /// The daemon's own `elapsed_ms` for each hit.
    pub hit_daemon_ms: Vec<f64>,
    pub ping_ms: Vec<f64>,
    pub cold_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatched: u64,
}

/// Binds the daemon, connects both clients, warms the hit designs, and
/// orders the cold designs.
pub fn setup(designs: &[Design], seed: u64) -> Result<Served, String> {
    let config = DaemonConfig { map: MapConfig::single_solver(), ..DaemonConfig::default() };
    let daemon = Daemon::bind(config).map_err(|e| format!("bind: {e}"))?;
    let addr = daemon.local_addr();
    let connect = || DaemonClient::connect(addr).map_err(|e| format!("connect: {e}"));
    let (mut hits, cold) = (connect()?, connect()?);
    let mut warmed = Vec::new();
    for (bench, arch) in HIT_DESIGNS {
        let payload = map_request(bench, arch);
        let doc = hits.request(&payload).map_err(|e| format!("warming {bench}: {e}"))?;
        let answer = Answer::of(&doc);
        if !answer.is_verdict() {
            return Err(format!("warming {bench} answered {}", doc.render()));
        }
        warmed.push((payload, answer));
    }
    // Signed and unsigned twins build the same program, and the cache keys
    // on structure, so only the first design of each (architecture,
    // structure) class is cold; hit designs' classes are warm already.
    let mut seen: Vec<(ArchName, (u64, u64))> = HIT_DESIGNS
        .iter()
        .filter_map(|&(name, arch)| designs.iter().find(|d| d.name == name && d.arch == arch))
        .map(|d| (d.arch, spec_fingerprint(&d.spec)))
        .collect();
    let mut cold_queue = Vec::new();
    for d in designs {
        let class = (d.arch, spec_fingerprint(&d.spec));
        if !seen.contains(&class) {
            seen.push(class);
            cold_queue.push((d.name.clone(), map_request(&d.name, d.arch)));
        }
    }
    Rng::new(seed).shuffle(&mut cold_queue);
    Ok(Served { daemon, hits, cold, warmed, cold_queue })
}

impl Served {
    /// Runs the cold walk to its end, and the hits loop until it has
    /// [`MIN_HITS`] hits and the cold walk is done. Call once per daemon: a
    /// second window would find the cold designs cached.
    pub fn measure(&mut self) -> Window {
        let cold_finished = AtomicBool::new(false);
        let started = Instant::now();
        let Served { hits, cold, warmed, cold_queue, .. } = self;
        let (mut window, cold_side) = std::thread::scope(|scope| {
            let cold_finished = &cold_finished;
            let cold_side = scope.spawn(move || {
                let mut side = Window::default();
                for (name, payload) in cold_queue.iter() {
                    side.attempted += 1;
                    let t0 = Instant::now();
                    match cold.request(payload) {
                        Ok(doc) if Answer::of(&doc).is_verdict() => {
                            side.cold_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                            if doc.get(&["from_cache"]).and_then(Json::as_bool) == Some(true) {
                                eprintln!("perfbench: cold `{name}` was served from the cache");
                            }
                        }
                        Ok(doc) => {
                            side.failed += 1;
                            eprintln!("perfbench: cold `{name}` answered {}", doc.render());
                        }
                        Err(e) => {
                            side.failed += 1;
                            eprintln!("perfbench: cold `{name}`: {e}");
                            break;
                        }
                    }
                }
                cold_finished.store(true, Ordering::Relaxed);
                side
            });
            let mut side = Window::default();
            // A broken connection ends the loop; the missing samples then
            // fail the run instead of spinning on errors.
            let mut broken = false;
            let cold_running = || !cold_finished.load(Ordering::Relaxed);
            while !broken && (side.hit_ms.len() < MIN_HITS || cold_running()) {
                for (payload, want) in warmed.iter() {
                    side.attempted += 1;
                    let t0 = Instant::now();
                    match hits.request(payload) {
                        Ok(doc) => {
                            side.hit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                            let got = Answer::of(&doc);
                            if &got != want {
                                side.failed += 1;
                                side.mismatched += 1;
                                eprintln!(
                                    "perfbench: hit answered {}, cold gave {want:?}",
                                    doc.render()
                                );
                            }
                            if let Some(ms) = doc.get(&["elapsed_ms"]).and_then(Json::as_f64) {
                                side.hit_daemon_ms.push(ms);
                            }
                        }
                        Err(e) => {
                            side.failed += 1;
                            broken = true;
                            eprintln!("perfbench: hit request: {e}");
                        }
                    }
                }
                side.attempted += 1;
                let t0 = Instant::now();
                match hits.request("{\"kind\":\"ping\"}") {
                    Ok(doc) if doc.get(&["kind"]).and_then(Json::as_str) == Some("pong") => {
                        side.ping_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    Ok(doc) => {
                        side.failed += 1;
                        eprintln!("perfbench: ping answered {}", doc.render());
                    }
                    Err(e) => {
                        side.failed += 1;
                        broken = true;
                        eprintln!("perfbench: ping: {e}");
                    }
                }
            }
            (side, cold_side.join().expect("cold loop thread"))
        });
        window.wall_s = started.elapsed().as_secs_f64();
        window.cold_ms = cold_side.cold_ms;
        window.attempted += cold_side.attempted;
        window.failed += cold_side.failed;
        window
    }

    /// The daemon's `stats` document.
    pub fn stats(&mut self) -> Result<Json, String> {
        self.hits.request("{\"kind\":\"stats\"}").map_err(|e| format!("stats: {e}"))
    }

    /// Closes both connections and drains the daemon; returns the number of
    /// admitted jobs it never answered.
    pub fn teardown(self) -> u64 {
        drop(self.hits);
        drop(self.cold);
        self.daemon.shutdown_and_wait().lost()
    }
}
