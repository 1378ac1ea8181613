//! `train_auth`: the paper's capture → decision path, in process,
//! closed loop, one caller.
//!
//! Set-up renders two households of four users (3-beep trains at
//! 0.7 m in a quiet lab), enrols each into its own `Authenticator` —
//! timing every user's enrolment — and builds each household's
//! identification store. The timed phase walks a fixed set of
//! operations in a seeded order, cycle after cycle: genuine claims
//! from held-out sessions, claims by unenrolled bodies, replayed trains
//! claiming a member (the anti-replay screen is on), and unclaimed
//! identification of genuine trains.

use crate::layers::{image_train, per_layer, timed, Timings};
use crate::population::{self, Household};
use crate::stats::{self, ms, ratio, us, verdict, Verdict};
use crate::{Ctx, Report};
use echo_obs::TraceCtx;
use echo_sim::BeepCapture;
use echoimage_core::auth::{AuthAttempt, Authenticator};
use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig};
use echoimage_core::spatial::train_spread;
use echoimage_core::store::{identify, identify_traced, IdentifyConfig, MemoryStore};
use std::time::Instant;

const HOUSEHOLDS: usize = 2;
const TESTS_PER_MEMBER: usize = 2;
const IMPOSTORS: usize = 2;
/// In-process auth latency limit for `auth_slo_rate`.
pub const SLO_MS: f64 = 60.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Genuine,
    Impostor,
    Replay,
    Identify,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    kind: Kind,
    household: usize,
    /// Index of the train: member × test for genuine/identify, member
    /// for replay, impostor for impostor.
    member: usize,
    test: usize,
    /// Claimed (genuine, replay, impostor) or true (identify) user id.
    user: u64,
}

struct Enrolled {
    auth: Authenticator,
    store: MemoryStore,
}

fn cycle() -> Vec<Op> {
    let mut ops = Vec::new();
    for h in 0..HOUSEHOLDS {
        for k in 0..population::HOUSEHOLD {
            let user = k as u64 + 1;
            for t in 0..TESTS_PER_MEMBER {
                ops.push(Op {
                    kind: Kind::Genuine,
                    household: h,
                    member: k,
                    test: t,
                    user,
                });
            }
            ops.push(Op {
                kind: Kind::Replay,
                household: h,
                member: k,
                test: 0,
                user,
            });
            ops.push(Op {
                kind: Kind::Identify,
                household: h,
                member: k,
                test: 0,
                user,
            });
        }
        for j in 0..IMPOSTORS {
            let user = (j % population::HOUSEHOLD) as u64 + 1;
            ops.push(Op {
                kind: Kind::Impostor,
                household: h,
                member: j,
                test: 0,
                user,
            });
        }
    }
    ops
}

fn train<'a>(hh: &'a [Household], op: &Op) -> &'a [BeepCapture] {
    let h = &hh[op.household];
    match op.kind {
        Kind::Genuine | Kind::Identify => &h.members[op.member].tests[op.test],
        Kind::Replay => &h.members[op.member].replay,
        Kind::Impostor => &h.impostors[op.member],
    }
}

/// The operation as a user's device runs it: one public call for an
/// auth, features then store lookup for an identification.
fn run_op(p: &EchoImagePipeline, hh: &[Household], en: &[Enrolled], op: &Op) -> Verdict {
    let e = &en[op.household];
    let captures = train(hh, op);
    match op.kind {
        Kind::Identify => verdict(
            p.features_from_train(captures)
                .and_then(|f| identify(&e.store, &f, &IdentifyConfig::default())),
        ),
        _ => verdict(e.auth.authenticate_train_claimed(p, captures, op.user)),
    }
}

/// The same operation issued layer by layer, each call timed. Returns
/// the verdict and the summed stage wall time (ms) on its path.
fn run_op_layered(
    p: &EchoImagePipeline,
    hh: &[Household],
    en: &[Enrolled],
    op: &Op,
    tm: &mut Timings,
) -> (Verdict, f64) {
    let e = &en[op.household];
    let (images, _, front) = match image_train(p, train(hh, op), &[], tm) {
        Ok(v) => v,
        Err(e) => return (verdict(Err(e)), 0.0),
    };
    let mut path = front;
    let cfg = &p.config().spatial;
    if op.kind != Kind::Identify && cfg.enabled {
        let (spread, d) = timed(|| train_spread(cfg, &images));
        tm.add("spatial.screen_ms", ms(d));
        path += ms(d);
        if spread.is_some_and(|c| c > cfg.max_coherence) {
            return (Verdict::Rejected, path);
        }
    }
    let threads = p.config().threads;
    let (feats, d) = timed(|| {
        p.feature_extractor()
            .extract_batch_threaded(&images, threads)
    });
    tm.add("features.image_ms", ms(d) / images.len() as f64);
    tm.add("features.batch_images", images.len() as f64);
    path += ms(d);
    let attempt = AuthAttempt {
        claimed_user: Some(op.user),
        retry_index: 0,
    };
    let (v, d) = match op.kind {
        Kind::Identify => {
            let (r, d) = timed(|| {
                identify_traced(
                    &e.store,
                    TraceCtx::none(),
                    &feats,
                    &IdentifyConfig::default(),
                    AuthAttempt::default(),
                )
            });
            tm.add("store.identify_us", us(d));
            (verdict(r), d)
        }
        _ => {
            let (r, d) = timed(|| {
                e.auth
                    .authenticate_features_traced(TraceCtx::none(), &feats, attempt)
            });
            tm.add("auth.decide_us", us(d));
            (verdict(r), d)
        }
    };
    (v, path + ms(d))
}

/// Enrols a household member by member, timing each user.
fn enroll_household(
    p: &EchoImagePipeline,
    h: &Household,
    enroll_ms: &mut Vec<f64>,
) -> Result<(Authenticator, population::Corpus), String> {
    let mut so_far = Vec::new();
    let mut auth = None;
    for m in &h.members {
        let (a, d) = timed(|| population::enroll_member(p, m, &mut so_far));
        enroll_ms.push(ms(d));
        auth = Some(a.map_err(|e| format!("enrolment failed: {e}"))?);
    }
    Ok((auth.expect("households are never empty"), so_far))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut cfg = PipelineConfig::default().with_threads(ctx.threads);
    cfg.spatial.enabled = true;
    let pipeline = EchoImagePipeline::new(cfg);
    let scene = population::scene();
    let hh: Vec<Household> = (0..HOUSEHOLDS)
        .map(|h| population::render_household(&scene, h, TESTS_PER_MEMBER, IMPOSTORS))
        .collect();
    // Enrol every household twice: the first pass warms the caches,
    // the second is timed and must train the very same models.
    let mut enroll_ms = Vec::new();
    let mut enrolled = Vec::new();
    for h in &hh {
        let (auth, _) = enroll_household(&pipeline, h, &mut Vec::new())?;
        let (again, so_far) = enroll_household(&pipeline, h, &mut enroll_ms)?;
        if again != auth {
            return Err("re-enrolling a household trained a different model".into());
        }
        let store = population::household_store(&auth, &so_far)
            .map_err(|e| format!("template store failed: {e}"))?;
        enrolled.push(Enrolled { auth, store });
    }
    let ops = cycle();
    // Warm-up: one untimed pass over every operation kind.
    for kind in [Kind::Genuine, Kind::Impostor, Kind::Replay, Kind::Identify] {
        let op = ops
            .iter()
            .find(|o| o.kind == kind)
            .expect("every kind is in the cycle");
        run_op(&pipeline, &hh, &enrolled, op);
    }
    let mut report = Report {
        setup_s: ctx.start.elapsed().as_secs_f64(),
        ..Report::default()
    };
    println!(
        "setup: {:.3} s ({} ops per cycle)",
        report.setup_s,
        ops.len()
    );

    let mut first: Vec<Option<Verdict>> = vec![None; ops.len()];
    // Every timed operation in run order: (op, latency ms, verdict).
    let mut order: Vec<(usize, f64, Verdict)> = Vec::new();
    let mut tm = Timings::default();
    let mut e2e_decided = Vec::new();
    let mut path_decided = Vec::new();
    let mut audits = 0usize;
    let before = echo_obs::snapshot();
    let t0 = Instant::now();
    let mut c = 0u64;
    while c == 0 || t0.elapsed() < ctx.duration() {
        for i in stats::permutation(ops.len(), stats::splitmix(ctx.seed ^ c)) {
            let op = &ops[i];
            if ctx.trace {
                let _ = echo_obs::take_audits();
            }
            let (v, d) = timed(|| run_op(&pipeline, &hh, &enrolled, op));
            if ctx.trace {
                audits += echo_obs::take_audits().len();
                let (lv, path) = run_op_layered(&pipeline, &hh, &enrolled, op, &mut tm);
                report.check(lv == v, || {
                    format!("traced path decided op {i} as {lv:?}, the program as {v:?}")
                });
                if matches!(op.kind, Kind::Genuine | Kind::Impostor) {
                    e2e_decided.push(ms(d));
                    path_decided.push(path);
                }
            }
            match first[i] {
                None => first[i] = Some(v),
                Some(f) => report.check(f == v, || format!("op {i} decided {v:?}, earlier {f:?}")),
            }
            order.push((i, ms(d), v));
            report.attempted += 1;
            report.failed += usize::from(!v.is_answer());
        }
        c += 1;
    }
    let decisions: Vec<(u64, Verdict)> = first
        .iter()
        .enumerate()
        .map(|(i, v)| (i as u64, v.expect("every op ran at least once")))
        .collect();
    report.digest = stats::digest(&decisions);
    println!(
        "timed: {} ops in {c} cycles, {:.3} s, digest {:016x}",
        report.attempted,
        t0.elapsed().as_secs_f64(),
        report.digest
    );

    let of = |k: Kind| -> Vec<usize> { (0..ops.len()).filter(|&i| ops[i].kind == k).collect() };
    let count = |idx: &[usize], pred: &dyn Fn(usize, Verdict) -> bool| {
        idx.iter()
            .filter(|&&i| pred(i, first[i].expect("ran")))
            .count()
    };
    let rejected = |_: usize, v: Verdict| v == Verdict::Rejected;
    let rep = of(Kind::Replay);
    let replay_rate = ratio(count(&rep, &rejected), rep.len());
    println!(
        "replay_reject_rate: {replay_rate:.4} ({} replay trains)",
        rep.len()
    );
    report.check(replay_rate >= 0.75, || {
        format!("replay_reject_rate {replay_rate:.4} below 0.75")
    });
    if ctx.trace {
        report
            .metrics
            .put("spatial.replay_reject_rate", replay_rate);
        let n = report.attempted;
        per_layer(
            &mut report,
            &tm,
            &before,
            audits,
            n,
            &e2e_decided,
            &path_decided,
        );
        return Ok(report);
    }

    // Reference pass: every operation once more, layer by layer on one
    // thread; its decisions must match the timed phase's exactly.
    let serial = EchoImagePipeline::new(pipeline.config().clone().with_threads(1));
    let mut scratch = Timings::default();
    let reference: Vec<(u64, Verdict)> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            (
                i as u64,
                run_op_layered(&serial, &hh, &enrolled, op, &mut scratch).0,
            )
        })
        .collect();
    let ref_digest = stats::digest(&reference);
    let digest = report.digest;
    report.check(ref_digest == digest, || {
        format!(
            "digest: timed phase {:016x}, layer-by-layer threads=1 {ref_digest:016x}",
            digest
        )
    });

    let (gen, imp, idn) = (of(Kind::Genuine), of(Kind::Impostor), of(Kind::Identify));
    let right_user = |i: usize, v: Verdict| v == Verdict::Accepted(ops[i].user);
    let (auths, ids): (Vec<_>, Vec<_>) = order
        .iter()
        .partition(|(i, _, _)| ops[*i].kind != Kind::Identify);
    let auth_lat: Vec<f64> = auths.iter().map(|&&(_, l, _)| l).collect();
    let id_lat: Vec<f64> = ids.iter().map(|&&(_, l, _)| l).collect();
    let in_slo = auths
        .iter()
        .filter(|&&&(_, l, v)| l <= SLO_MS && v.is_answer())
        .count();
    let half = auth_lat.len() / 2;
    println!("{}", stats::describe("auth", "ms", &auth_lat));
    println!("{}", stats::describe("identify", "ms", &id_lat));
    println!("{}", stats::describe("enroll (set-up)", "ms", &enroll_ms));
    println!(
        "stationarity: auth p50 first half {:.4} ms, second half {:.4} ms",
        stats::median(&auth_lat[..half]).unwrap_or(0.0),
        stats::median(&auth_lat[half..]).unwrap_or(0.0)
    );
    let done = report.attempted - report.failed;
    report.samples = vec![
        ("auth_p50_ms", auth_lat),
        ("enroll_p50_ms", enroll_ms),
        ("identify_p50_ms", id_lat),
    ];
    report.counts = vec![
        ("auth_slo_rate", (in_slo, auths.len())),
        ("genuine_accept_rate", (count(&gen, &right_user), gen.len())),
        ("impostor_reject_rate", (count(&imp, &rejected), imp.len())),
        (
            "identify_correct_rate",
            (count(&idn, &right_user), idn.len()),
        ),
        ("success_rate", (done, report.attempted)),
    ];
    Ok(report)
}
