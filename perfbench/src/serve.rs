//! `serve`: the `echo-serve` daemon in process on loopback TCP at
//! `ServeConfig::default()`, driven open loop.
//!
//! One connection, one sender thread and one reader thread. Requests
//! arrive as a seeded Poisson process at [`RATE`]; each is timed from
//! when it was due to when its response was read, so a stall also
//! charges the requests queued behind it. The traffic uses the daemon's
//! own deterministic `loadgen::synth_image` world: genuine and impostor
//! `Auth` claims against four enrolled households, about a tenth
//! `Identify`, and a small fixed share of `Enroll` that onboards the
//! second member of a fresh household tenant — never re-enrolling into a
//! served one, so the served tenants' models (and the mix's cost) stay
//! the same all run.

use crate::layers::{timed, Timings};
use crate::stats::{self, ms, ratio, us, verdict, Verdict};
use crate::{Ctx, Report};
use echo_ml::GrayImage;
use echo_obs::TraceCtx;
use echo_serve::client::{Client, ClientError};
use echo_serve::loadgen::{fetch_stats, synth_image};
use echo_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, split_frame, Opcode, Request,
    Response, Status,
};
use echo_serve::server::{BindAddr, ServerHandle};
use echo_serve::ServeConfig;
use echoimage_core::auth::{AuthAttempt, AuthConfig, Authenticator};
use echoimage_core::store::{identify_traced, IdentifyConfig};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Offered load, requests per second.
const RATE: f64 = 250.0;
/// Served households (tenants `0..TENANTS`).
const TENANTS: u64 = 4;
/// Users per served household.
const USERS: u64 = 4;
/// Members of a household `Enroll` onboards. Set-up enrols the first,
/// untimed; each timed `Enroll` adds the second, so every timed
/// enrolment is the same step, a two-user retrain. Timing every member
/// split the samples into one cost cluster per position, and the median
/// fell on the edge between two of them.
const FRESH_USERS: u64 = 2;
/// Enrolment images per user, as `loadgen`'s world uses.
const ENROLL_IMAGES: u64 = 30;
/// Images per auth or identify request.
const BEEPS: u64 = 3;
const SIDE: usize = 32;
/// Slots in one cycle of the mix.
const CYCLE: usize = 100;
const IMPOSTOR_SLOTS: usize = 15;
const IDENTIFY_SLOTS: usize = 10;
/// Writes per cycle, each onboarding one fresh household. A retrain
/// holds the batcher (and the registry lock), so the write share sets how
/// often reads queue behind one; at 2% the stalls show in the tail
/// (`auth_slo_rate`) without moving the median. At 4% the retrains that
/// take the SVM's slow path build a backlog and the auth median doubles.
const ENROLL_SLOTS: usize = 2;
/// First tenant id of the households `Enroll` onboards.
const FRESH_TENANT: u64 = 1_000;
/// Households the traced run onboards outside the mix, from
/// `LAYER_TENANT`, to time the tenant-enrolment and retrain layers.
const LAYER_TENANT: u64 = 900_000;
const LAYER_HOUSEHOLDS: u64 = 5;
/// Daemon latency limit for `auth_slo_rate`.
const SLO_MS: f64 = 25.0;
/// How long the reader waits past the last due time.
const DRAIN: Duration = Duration::from_secs(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Genuine,
    Impostor,
    Identify,
    Enroll,
}

/// One request of the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    kind: Kind,
    /// Position in the cycle: the op id of its decision.
    slot: usize,
    tenant: u64,
    /// Claimed (auth), true (identify) or enrolling (enroll) user.
    user: u64,
    /// The synthetic subject whose images the request carries.
    subject: u64,
}

fn kind_of(slot: usize) -> Kind {
    match slot {
        s if s < ENROLL_SLOTS => Kind::Enroll,
        s if s < ENROLL_SLOTS + IDENTIFY_SLOTS => Kind::Identify,
        s if s < ENROLL_SLOTS + IDENTIFY_SLOTS + IMPOSTOR_SLOTS => Kind::Impostor,
        _ => Kind::Genuine,
    }
}

/// The first `n` requests: whole cycles of the mix, each cycle in a
/// seeded order. The `k`-th `Enroll` onboards the last member of fresh
/// tenant `FRESH_TENANT + k`, whose earlier members set-up enrolled.
fn plan(seed: u64, n: usize) -> Vec<Slot> {
    let mut out = Vec::with_capacity(n);
    let mut enrolls = 0u64;
    for c in 0.. {
        for slot in stats::permutation(CYCLE, stats::splitmix(seed ^ c)) {
            if out.len() == n {
                return out;
            }
            let tenant = slot as u64 % TENANTS;
            let user = (slot as u64 / TENANTS) % USERS + 1;
            out.push(match kind_of(slot) {
                Kind::Enroll => {
                    let s = Slot {
                        kind: Kind::Enroll,
                        slot,
                        tenant: FRESH_TENANT + enrolls,
                        user: FRESH_USERS,
                        subject: FRESH_USERS,
                    };
                    enrolls += 1;
                    s
                }
                // Impostors carry images of a user id nobody enrolled.
                Kind::Impostor => Slot {
                    kind: Kind::Impostor,
                    slot,
                    tenant,
                    user,
                    subject: 100 + user,
                },
                kind => Slot {
                    kind,
                    slot,
                    tenant,
                    user,
                    subject: user,
                },
            });
        }
    }
    out
}

/// The images a slot's request carries: a read's depend on its slot
/// alone, an enrolment's on its tenant and user.
fn images(s: &Slot) -> Vec<GrayImage> {
    match s.kind {
        Kind::Enroll => (0..ENROLL_IMAGES)
            .map(|v| synth_image(s.tenant, s.subject, v, SIDE))
            .collect(),
        _ => (0..BEEPS)
            .map(|b| synth_image(s.tenant, s.subject, 10_000 + s.slot as u64 * 8 + b, SIDE))
            .collect(),
    }
}

fn request(s: &Slot, id: u64, images: Vec<GrayImage>) -> Request {
    let (op, user) = match s.kind {
        Kind::Genuine | Kind::Impostor => (Opcode::Auth, s.user),
        Kind::Identify => (Opcode::Identify, u64::MAX),
        Kind::Enroll => (Opcode::Enroll, s.user),
    };
    Request {
        op,
        request_id: id,
        tenant: s.tenant,
        user,
        images,
    }
}

fn from_status(status: Status, user: u64) -> Verdict {
    match status {
        Status::Accepted => Verdict::Accepted(user),
        Status::Rejected => Verdict::Rejected,
        Status::Ok => Verdict::Enrolled,
        Status::Overloaded => Verdict::Shed,
        Status::Error => Verdict::Failed,
    }
}

fn io_err(msg: String) -> ClientError {
    ClientError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, msg))
}

/// Enrols the served households over the wire, and all but the last
/// member of the `fresh` households the timed `Enroll`s complete.
fn enroll_world(addr: SocketAddr, fresh: u64) -> Result<(), ClientError> {
    let mut client = Client::connect_tcp(addr)?;
    let served = (0..TENANTS).map(|t| (t, USERS));
    let onboarding = (FRESH_TENANT..FRESH_TENANT + fresh).map(|t| (t, FRESH_USERS - 1));
    for (tenant, members) in served.chain(onboarding) {
        for user in 1..=members {
            let s = Slot {
                kind: Kind::Enroll,
                slot: 0,
                tenant,
                user,
                subject: user,
            };
            let resp = client.call(&request(&s, tenant * 100 + user, images(&s)))?;
            if resp.status != Status::Ok {
                return Err(io_err(format!(
                    "enrol of tenant {tenant} user {user}: {}",
                    resp.reason
                )));
            }
        }
    }
    Ok(())
}

/// What the open-loop run observed.
struct LoadRun {
    /// Per request: (latency from due time in ms, verdict); `None` when
    /// no response arrived in time.
    outcomes: Vec<Option<(f64, Verdict)>>,
    /// Sender lateness against the schedule, ms.
    late_ms: Vec<f64>,
    wall_s: f64,
}

/// Sends `slots` on a seeded Poisson schedule and reads every response.
fn drive(
    addr: SocketAddr,
    slots: &[Slot],
    seed: u64,
    id_base: u64,
) -> Result<LoadRun, ClientError> {
    let mut sender = Client::connect_tcp(addr)?;
    let mut reader = sender.try_clone()?;
    reader.set_read_timeout(Some(Duration::from_millis(100)))?;
    // One copy of each distinct image set: a cycle of reads plus the
    // run's enrolments, not one per request.
    let key = |s: &Slot| match s.kind {
        Kind::Enroll => (s.tenant, s.subject, usize::MAX),
        _ => (s.tenant, s.subject, s.slot),
    };
    let mut image_sets: HashMap<(u64, u64, usize), Vec<GrayImage>> = HashMap::new();
    for s in slots {
        image_sets.entry(key(s)).or_insert_with(|| images(s));
    }
    let mut offsets = Vec::with_capacity(slots.len());
    let mut t = 0.0f64;
    for i in 0..slots.len() as u64 {
        let u = (stats::splitmix(seed ^ 0xA11C_E5ED ^ i) >> 11) as f64 / (1u64 << 53) as f64;
        t += -(1.0 - u).ln() / RATE;
        offsets.push(Duration::from_secs_f64(t));
    }
    let n = slots.len();
    let last_due = *offsets.last().unwrap_or(&Duration::ZERO);
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let read = scope.spawn(
            move || -> Result<Vec<Option<(Instant, Response)>>, ClientError> {
                let mut got: Vec<Option<(Instant, Response)>> = vec![None; n];
                let mut left = n;
                while left > 0 && Instant::now() < start + last_due + DRAIN {
                    match reader.recv() {
                        Ok(resp) => {
                            let at = Instant::now();
                            let i = resp.request_id.checked_sub(id_base).map(|i| i as usize);
                            match i {
                                Some(i) if i < n && got[i].is_none() => {
                                    got[i] = Some((at, resp));
                                    left -= 1;
                                }
                                _ => {
                                    return Err(io_err(format!(
                                        "unexpected response id {}",
                                        resp.request_id
                                    )))
                                }
                            }
                        }
                        Err(ClientError::Io(e))
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) => {}
                        Err(e) => return Err(e),
                    }
                }
                Ok(got)
            },
        );
        let mut late_ms = Vec::with_capacity(n);
        let mut send_err = None;
        for (i, (s, off)) in slots.iter().zip(&offsets).enumerate() {
            let req = request(s, id_base + i as u64, image_sets[&key(s)].clone());
            let due = start + *off;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            late_ms.push(ms(Instant::now().saturating_duration_since(due)));
            if let Err(e) = sender.send(&req) {
                send_err = Some(e);
                break;
            }
        }
        let got = read
            .join()
            .map_err(|_| io_err("reader thread panicked".into()))??;
        if let Some(e) = send_err {
            return Err(e);
        }
        let outcomes = got
            .into_iter()
            .zip(&offsets)
            .map(|(g, off)| {
                g.map(|(at, r)| {
                    (
                        ms(at.saturating_duration_since(start + *off)),
                        from_status(r.status, r.user_id),
                    )
                })
            })
            .collect();
        Ok(LoadRun {
            outcomes,
            late_ms,
            wall_s: start.elapsed().as_secs_f64(),
        })
    })
}

/// Decides one auth or identify slot from the benchmark's side with the
/// daemon's extractor at `threads`, against the tenant's live model.
fn decide_outside(server: &ServerHandle, s: &Slot, threads: usize, tm: &mut Timings) -> Verdict {
    let imgs = images(s);
    let feats = server.features().extract_batch_threaded(&imgs, threads);
    let reg = server.registry();
    match s.kind {
        Kind::Identify => match reg.store(s.tenant) {
            None => Verdict::Failed,
            Some(h) => {
                let store = h.load();
                let (r, d) = timed(|| {
                    identify_traced(
                        store.as_ref(),
                        TraceCtx::none(),
                        &feats,
                        &IdentifyConfig::default(),
                        AuthAttempt::default(),
                    )
                });
                tm.add("store.identify_us", us(d));
                verdict(r)
            }
        },
        _ => match reg.authenticator(s.tenant) {
            None => Verdict::Failed,
            Some(a) => {
                let attempt = AuthAttempt {
                    claimed_user: Some(s.user),
                    retry_index: 0,
                };
                let (r, d) =
                    timed(|| a.authenticate_features_traced(TraceCtx::none(), &feats, attempt));
                tm.add("auth.decide_us", us(d));
                verdict(r)
            }
        },
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let cfg = ServeConfig {
        threads: ctx.threads,
        ..ServeConfig::default()
    };
    let server = ServerHandle::start(cfg, BindAddr::Tcp("127.0.0.1:0".into()))
        .map_err(|e| format!("bind: {e}"))?;
    let result = run_with(ctx, &server);
    server.shutdown();
    result
}

fn run_with(ctx: &Ctx, server: &ServerHandle) -> Result<Report, String> {
    let addr = server.local_addr().ok_or("server has no TCP address")?;
    let n = ((RATE * ctx.seconds) as usize).div_ceil(CYCLE).max(1) * CYCLE;
    let slots = plan(ctx.seed, n);
    let fresh = slots.iter().filter(|s| s.kind == Kind::Enroll).count() as u64;
    enroll_world(addr, fresh).map_err(|e| format!("enrol: {e}"))?;
    // Warm-up: a second of the mix's reads, untimed.
    let warm: Vec<Slot> = plan(ctx.seed ^ 0x5EED, RATE as usize)
        .into_iter()
        .filter(|s| s.kind != Kind::Enroll)
        .collect();
    let w = drive(addr, &warm, ctx.seed ^ 0x5EED, 1 << 40).map_err(|e| format!("warm-up: {e}"))?;
    if w.outcomes.iter().any(|o| o.is_none()) {
        return Err("warm-up requests went unanswered".into());
    }
    let mut report = Report {
        setup_s: ctx.start.elapsed().as_secs_f64(),
        ..Report::default()
    };
    println!(
        "setup: {:.3} s ({TENANTS} households of {USERS} enrolled, {fresh} of {FRESH_USERS} \
         onboarding)",
        report.setup_s
    );

    let before = fetch_stats(addr).map_err(|e| format!("stats: {e}"))?;
    let _ = echo_obs::take_audits();
    let run = drive(addr, &slots, ctx.seed, 1 << 32).map_err(|e| format!("load: {e}"))?;
    let audits = echo_obs::take_audits().len();
    let after = fetch_stats(addr).map_err(|e| format!("stats: {e}"))?;
    let batches = after.batch_count.saturating_sub(before.batch_count);
    let mean_batch = ratio(
        after.batch_sum.saturating_sub(before.batch_sum) as usize,
        batches as usize,
    );

    let mut first: Vec<Option<Verdict>> = vec![None; CYCLE];
    let (mut auth_ms, mut id_ms, mut enroll_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut auth_sent, mut in_slo) = (0usize, 0usize);
    let (mut ok, mut shed, mut errors, mut timeouts) = (0usize, 0usize, 0usize, 0usize);
    for (s, o) in slots.iter().zip(&run.outcomes) {
        let is_auth = matches!(s.kind, Kind::Genuine | Kind::Impostor);
        auth_sent += usize::from(is_auth);
        let Some((l, v)) = *o else {
            timeouts += 1;
            continue;
        };
        match v {
            Verdict::Shed => shed += 1,
            Verdict::Failed | Verdict::TimedOut => errors += 1,
            _ => {
                ok += 1;
                match s.kind {
                    Kind::Enroll => enroll_ms.push(l),
                    Kind::Identify => id_ms.push(l),
                    _ => {
                        auth_ms.push(l);
                        in_slo += usize::from(l <= SLO_MS);
                    }
                }
                match first[s.slot] {
                    None => first[s.slot] = Some(v),
                    Some(f) => report.check(f == v, || {
                        format!("slot {} decided {v:?}, earlier {f:?}", s.slot)
                    }),
                }
            }
        }
    }
    report.attempted = slots.len();
    report.failed = slots.len() - ok;
    let decisions: Vec<(u64, Verdict)> = first
        .iter()
        .enumerate()
        .map(|(i, v)| (i as u64, v.unwrap_or(Verdict::TimedOut)))
        .collect();
    report.digest = stats::digest(&decisions);
    println!(
        "open loop: offered {RATE:.1} req/s, achieved {:.1} req/s; sent {}, succeeded {ok}, shed {shed}, \
         failed {errors}, timed out {timeouts}; mean batch {mean_batch:.3} over {batches} batches; digest {:016x}",
        slots.len() as f64 / run.wall_s,
        slots.len(),
        report.digest
    );
    println!("{}", stats::describe("auth", "ms", &auth_ms));
    println!("{}", stats::describe("identify", "ms", &id_ms));
    println!("{}", stats::describe("enroll", "ms", &enroll_ms));
    println!("{}", stats::describe("sender lateness", "ms", &run.late_ms));
    let half = auth_ms.len() / 2;
    println!(
        "stationarity: auth p50 first half {:.4} ms, second half {:.4} ms",
        stats::median(&auth_ms[..half]).unwrap_or(0.0),
        stats::median(&auth_ms[half..]).unwrap_or(0.0)
    );
    report.check(mean_batch > 1.0, || {
        format!("batches did not coalesce: mean batch {mean_batch:.3}")
    });

    // Output check: every decision the daemon made for one cycle,
    // recomputed from the benchmark's side — on one thread in the
    // untraced run, at the daemon's thread count in the traced run.
    let threads = if ctx.trace { ctx.threads } else { 1 };
    let mut tm = Timings::default();
    // The plan's first CYCLE requests hold every slot once.
    let cycle0 = &slots[..CYCLE];
    let mut outside = Vec::with_capacity(CYCLE);
    for s in cycle0 {
        let v = match s.kind {
            Kind::Enroll => Verdict::Enrolled,
            _ => decide_outside(server, s, threads, &mut tm),
        };
        outside.push((s.slot as u64, v));
    }
    let out_digest = stats::digest(&outside);
    let digest = report.digest;
    report.check(out_digest == digest, || {
        format!(
            "digest: daemon {:016x}, recomputed at threads={threads} {out_digest:016x}",
            digest
        )
    });

    let class = |k: Kind, pred: &dyn Fn(&Slot, Verdict) -> bool| {
        let idx: Vec<&Slot> = cycle0.iter().filter(|s| s.kind == k).collect();
        let hits = idx
            .iter()
            .filter(|s| first[s.slot].is_some_and(|v| pred(s, v)));
        (hits.count(), idx.len())
    };
    let right_user = |s: &Slot, v: Verdict| v == Verdict::Accepted(s.user);
    let rejected = |_: &Slot, v: Verdict| v == Verdict::Rejected;

    if ctx.trace {
        per_layer(
            server,
            &slots,
            &mut tm,
            &mut report,
            &auth_ms,
            mean_batch,
            ctx.threads,
        );
        let m = &mut report.metrics;
        m.put("serve.shed_share", ratio(shed, slots.len()));
        m.put(
            "generator.late_p99_ms",
            stats::tail_quantile(&run.late_ms, 0.99).unwrap_or(0.0),
        );
        m.put("batcher.mean_batch", mean_batch);
        m.put("obs.audits_per_op", ratio(audits, slots.len()));
        return Ok(report);
    }
    report.samples = vec![
        ("auth_p50_ms", auth_ms),
        ("enroll_p50_ms", enroll_ms),
        ("identify_p50_ms", id_ms),
    ];
    report.counts = vec![
        ("auth_slo_rate", (in_slo, auth_sent)),
        ("genuine_accept_rate", class(Kind::Genuine, &right_user)),
        ("impostor_reject_rate", class(Kind::Impostor, &rejected)),
        ("identify_correct_rate", class(Kind::Identify, &right_user)),
        ("success_rate", (ok, slots.len())),
    ];
    Ok(report)
}

/// The traced run's serving layers, timed from the benchmark's side
/// after the load: wire codec, batched features at the observed batch
/// size, tenant enrolment and its retrain.
fn per_layer(
    server: &ServerHandle,
    slots: &[Slot],
    tm: &mut Timings,
    report: &mut Report,
    auth_ms: &[f64],
    mean_batch: f64,
    threads: usize,
) {
    let window = ServeConfig::default().batch_window;
    let auth: Vec<&Slot> = slots
        .iter()
        .filter(|s| s.kind == Kind::Genuine)
        .take(CYCLE)
        .collect();
    for s in &auth {
        let req = request(s, 7, images(s));
        let resp = Response {
            op: Opcode::Auth,
            request_id: 7,
            status: Status::Accepted,
            user_id: s.user,
            trace_id: 0,
            reason: String::new(),
            stats: None,
        };
        let ((q, r), enc) = timed(|| (encode_request(&req), encode_response(&resp)));
        let (decoded, dec) = timed(|| {
            let q = split_frame(&q)
                .ok()
                .flatten()
                .map(|(p, _)| decode_request(p));
            let r = split_frame(&r)
                .ok()
                .flatten()
                .map(|(p, _)| decode_response(p));
            (q, r)
        });
        report.check(matches!(decoded, (Some(Ok(_)), Some(Ok(_)))), || {
            "auth frame did not round-trip".into()
        });
        tm.add("protocol.encode_us", us(enc));
        tm.add("protocol.decode_us", us(dec));
    }
    let batch = (mean_batch.round() as usize).max(1);
    for chunk in auth.chunks(batch) {
        let imgs: Vec<GrayImage> = chunk.iter().flat_map(|s| images(s)).collect();
        let (_, d) = timed(|| server.features().extract_batch_threaded(&imgs, threads));
        tm.add("features.image_ms", ms(d) / imgs.len() as f64);
        tm.add("features.batch_images", imgs.len() as f64);
    }
    // Fresh households through the registry, and the same retrain the
    // registry runs, each timed at the step the mix's `Enroll` times:
    // the last member's.
    let reg = server.registry();
    for tenant in LAYER_TENANT..LAYER_TENANT + LAYER_HOUSEHOLDS {
        let mut groups: Vec<(usize, Vec<Vec<Vec<f64>>>)> = Vec::new();
        for user in 1..=FRESH_USERS {
            let s = Slot {
                kind: Kind::Enroll,
                slot: 0,
                tenant,
                user,
                subject: user,
            };
            let feats = server
                .features()
                .extract_batch_threaded(&images(&s), threads);
            let (r, d) = timed(|| reg.enroll_group(s.tenant, user as usize, feats.clone()));
            report.check(r.is_ok(), || format!("tenant enrolment failed: {r:?}"));
            groups.push((user as usize, vec![feats]));
            let (a, dt) =
                timed(|| Authenticator::enroll_with_groups(&groups, &AuthConfig::default()));
            report.check(a.is_ok(), || "retrain failed".into());
            if user == FRESH_USERS {
                tm.add("tenant.enroll_ms", ms(d));
                tm.add("svm.train_ms", ms(dt));
            }
        }
    }
    let p50 = stats::median(auth_ms).unwrap_or(0.0);
    let per_train = tm.median("protocol.decode_us") / 1e3
        + tm.median("features.image_ms") * BEEPS as f64
        + tm.median("auth.decide_us") / 1e3
        + tm.median("protocol.encode_us") / 1e3;
    let wait = p50 - per_train;
    println!(
        "attribution: auth p50 {p50:.4} ms = codec + features + decide {per_train:.4} ms + batcher wait \
         {wait:.4} ms (batch window {:.1} ms)",
        ms(window)
    );
    let m = &mut report.metrics;
    tm.put_medians(m);
    m.put("batcher.wait_ms", wait);
    if p50 > 0.0 {
        m.put("unattributed_share", (wait - ms(window)) / p50);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_onboard_fresh_tenants_and_never_re_enrol_a_live_one() {
        let slots = plan(42, 20 * CYCLE);
        let mut seen = std::collections::HashSet::new();
        for s in slots.iter().filter(|s| s.kind == Kind::Enroll) {
            assert!(
                s.tenant >= FRESH_TENANT,
                "enrol into served tenant {}",
                s.tenant
            );
            assert_eq!(s.user, FRESH_USERS, "timed enrolment of an early member");
            assert!(seen.insert(s.tenant), "re-enrolment of {:?}", s);
        }
        assert_eq!(seen.len(), 20 * ENROLL_SLOTS);
        for s in slots.iter().filter(|s| s.kind != Kind::Enroll) {
            assert!(
                s.tenant < TENANTS,
                "read against an onboarding tenant {}",
                s.tenant
            );
        }
    }

    #[test]
    fn every_cycle_holds_the_same_mix() {
        let slots = plan(7, 3 * CYCLE);
        for c in slots.chunks(CYCLE) {
            let mut ids: Vec<usize> = c.iter().map(|s| s.slot).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..CYCLE).collect::<Vec<_>>());
            let identify = c.iter().filter(|s| s.kind == Kind::Identify).count();
            assert_eq!(identify, IDENTIFY_SLOTS);
        }
        assert_ne!(plan(7, CYCLE), plan(8, CYCLE));
    }
}
