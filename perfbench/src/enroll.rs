//! `enroll`: onboarding whole households, in process, closed loop, one
//! caller.
//!
//! One operation is one user's enrolment: `enrollment_features` over
//! 2 visits × 3 beeps (3 imaging planes, 2 augmentation offsets), then
//! `Authenticator::enroll` over the household so far. After each
//! household the new model decides a fixed probe set of pre-extracted
//! features — genuine claims, unenrolled bodies' claims, replayed trains
//! behind the anti-replay screen, and unclaimed identification — each
//! decision timed on its own. Households come from a fixed pool in a
//! seeded order, so every onboarding is a fresh `Authenticator`.

use crate::layers::{image_train, per_layer, timed, Timings};
use crate::population::{self, Household};
use crate::stats::{self, ms, ratio, us, verdict, Verdict};
use crate::train_auth::SLO_MS;
use crate::{Ctx, Report};
use echo_ml::GrayImage;
use echo_obs::TraceCtx;
use echoimage_core::augment::augment_sweep;
use echoimage_core::auth::{AuthAttempt, AuthConfig, Authenticator};
use echoimage_core::config::SpatialCheckConfig;
use echoimage_core::enrollment::EnrollmentConfig;
use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig};
use echoimage_core::spatial::train_spread;
use echoimage_core::store::{identify_traced, IdentifyConfig, MemoryStore};
use echoimage_core::EchoImageError;
use std::time::Instant;

const POOL: usize = 2;
const IMPOSTORS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Genuine,
    Impostor,
    Replay,
    Identify,
}

/// One pre-extracted probe train.
struct Probe {
    kind: Kind,
    /// Claimed (auth) or true (identify) user.
    user: u64,
    /// The train's images and features, or the error imaging it met —
    /// the authentication path turns that into its decision too.
    prepared: Result<(Vec<GrayImage>, Vec<Vec<f64>>), EchoImageError>,
}

fn probes(p: &EchoImagePipeline, h: &Household) -> Vec<Probe> {
    let prepare = |train: &[echo_sim::BeepCapture]| {
        p.images_from_train(train).map(|(images, _)| {
            let features = p.features_batch(&images);
            (images, features)
        })
    };
    let mut out = Vec::new();
    for m in &h.members {
        let user = m.id as u64;
        let genuine = prepare(&m.tests[0]);
        out.push(Probe {
            kind: Kind::Identify,
            user,
            prepared: genuine.clone(),
        });
        out.push(Probe {
            kind: Kind::Genuine,
            user,
            prepared: genuine,
        });
        out.push(Probe {
            kind: Kind::Replay,
            user,
            prepared: prepare(&m.replay),
        });
    }
    for (j, imp) in h.impostors.iter().enumerate() {
        let user = (j % population::HOUSEHOLD) as u64 + 1;
        out.push(Probe {
            kind: Kind::Impostor,
            user,
            prepared: prepare(imp),
        });
    }
    out
}

/// Decides one probe on the freshly enrolled household.
fn decide(
    auth: &Authenticator,
    store: &MemoryStore,
    screen: &SpatialCheckConfig,
    probe: &Probe,
) -> Verdict {
    let attempt = AuthAttempt {
        claimed_user: Some(probe.user),
        retry_index: 0,
    };
    let (images, features) = match &probe.prepared {
        Ok(v) => v,
        Err(e) => return verdict(Err(e.clone())),
    };
    match probe.kind {
        Kind::Identify => verdict(identify_traced(
            store,
            TraceCtx::none(),
            features,
            &IdentifyConfig::default(),
            AuthAttempt::default(),
        )),
        Kind::Replay if train_spread(screen, images).is_some_and(|c| c > screen.max_coherence) => {
            Verdict::Rejected
        }
        _ => verdict(auth.authenticate_features_traced(TraceCtx::none(), features, attempt)),
    }
}

/// `enrollment_features` + `Authenticator::enroll` issued layer by
/// layer. Returns the user's features and the summed stage wall time.
fn enroll_layered(
    p: &EchoImagePipeline,
    visits: &[Vec<echo_sim::BeepCapture>],
    so_far: &[(usize, Vec<Vec<f64>>)],
    id: usize,
    tm: &mut Timings,
) -> Result<(Vec<Vec<f64>>, f64), EchoImageError> {
    let recipe = EnrollmentConfig::default();
    let imaging = &p.config().imaging;
    let mut path = 0.0;
    let mut gathered = Vec::new();
    for visit in visits {
        let (images, d_est, front) = image_train(p, visit, &recipe.plane_offsets, tm)?;
        path += front;
        let targets: Vec<f64> = recipe
            .augment_offsets
            .iter()
            .map(|o| (d_est + o).max(0.2))
            .collect();
        for img in images {
            let (synth, d) = timed(|| augment_sweep(&img, imaging, d_est, &targets));
            tm.add("augment.sweep_ms", ms(d));
            path += ms(d);
            gathered.push(img);
            gathered.extend(synth?);
        }
    }
    let threads = p.config().threads;
    let (feats, d) = timed(|| {
        p.feature_extractor()
            .extract_batch_threaded(&gathered, threads)
    });
    tm.add("features.image_ms", ms(d) / gathered.len() as f64);
    tm.add("features.batch_images", gathered.len() as f64);
    path += ms(d);
    let mut users = so_far.to_vec();
    users.push((id, feats.clone()));
    let (auth, d) = timed(|| Authenticator::enroll(&users, &AuthConfig::default()));
    auth?;
    tm.add("svm.train_ms", ms(d));
    Ok((feats, path + ms(d)))
}

/// Onboards household `h`, timing each user. In a traced run each user
/// is also enrolled layer by layer and must yield the same features.
fn onboard(
    p: &EchoImagePipeline,
    h: &Household,
    trace: Option<(&mut Timings, &mut Vec<f64>, &mut Vec<f64>)>,
    enroll_ms: &mut Vec<f64>,
    report: &mut Report,
) -> Result<(Authenticator, MemoryStore), String> {
    let mut so_far = Vec::new();
    let mut auth = None;
    let mut trace = trace;
    for m in &h.members {
        let before = so_far.clone();
        let (a, d) = timed(|| population::enroll_member(p, m, &mut so_far));
        enroll_ms.push(ms(d));
        auth = Some(a.map_err(|e| format!("enrolment failed: {e}"))?);
        if let Some((tm, e2e, path)) = trace.as_mut() {
            let (feats, sum) = enroll_layered(p, &m.visits, &before, m.id, tm)
                .map_err(|e| format!("layered enrolment failed: {e}"))?;
            report.check(so_far.last().is_some_and(|(_, f)| *f == feats), || {
                format!(
                    "traced enrolment of user {} produced different features",
                    m.id
                )
            });
            e2e.push(ms(d));
            path.push(sum);
        }
    }
    let auth = auth.expect("households are never empty");
    let store = population::household_store(&auth, &so_far)
        .map_err(|e| format!("template store failed: {e}"))?;
    Ok((auth, store))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let pipeline = EchoImagePipeline::new(PipelineConfig::default().with_threads(ctx.threads));
    let screen = SpatialCheckConfig {
        enabled: true,
        ..SpatialCheckConfig::default()
    };
    let scene = population::scene();
    let pool: Vec<Household> = (0..POOL)
        .map(|h| population::render_household(&scene, h, 1, IMPOSTORS))
        .collect();
    let probe_sets: Vec<Vec<Probe>> = pool.iter().map(|h| probes(&pipeline, h)).collect();
    let mut report = Report::default();
    // Warm-up: onboard the first household untimed; its model is also
    // the reference every later onboarding of it must reproduce.
    let (reference, _) = onboard(&pipeline, &pool[0], None, &mut Vec::new(), &mut report)?;
    report.setup_s = ctx.start.elapsed().as_secs_f64();
    println!(
        "setup: {:.3} s ({POOL} households in the pool)",
        report.setup_s
    );

    let mut enroll_ms = Vec::new();
    let mut auth_ms: Vec<f64> = Vec::new();
    let mut id_ms: Vec<f64> = Vec::new();
    let mut first: Vec<Vec<Option<Verdict>>> =
        probe_sets.iter().map(|s| vec![None; s.len()]).collect();
    let mut models: Vec<Option<Authenticator>> = vec![None; POOL];
    models[0] = Some(reference.clone());
    let mut in_slo = 0usize;
    let mut tm = Timings::default();
    let (mut e2e, mut path) = (Vec::new(), Vec::new());
    let mut audits = 0usize;
    let before = echo_obs::snapshot();
    let t0 = Instant::now();
    let mut round = 0u64;
    while round == 0 || t0.elapsed() < ctx.duration() {
        for h in stats::permutation(POOL, stats::splitmix(ctx.seed ^ round)) {
            let trace = ctx.trace.then_some((&mut tm, &mut e2e, &mut path));
            let (auth, store) = onboard(&pipeline, &pool[h], trace, &mut enroll_ms, &mut report)?;
            report.attempted += population::HOUSEHOLD;
            match &models[h] {
                None => models[h] = Some(auth.clone()),
                Some(m) => report.check(*m == auth, || {
                    format!("household {h} enrolled to a different model")
                }),
            }
            let _ = echo_obs::take_audits();
            for (i, probe) in probe_sets[h].iter().enumerate() {
                let (v, d) = timed(|| decide(&auth, &store, &screen, probe));
                if probe.kind == Kind::Identify {
                    id_ms.push(ms(d));
                    tm.add("store.identify_us", us(d));
                } else {
                    auth_ms.push(ms(d));
                    in_slo += usize::from(ms(d) <= SLO_MS && v.is_answer());
                    if probe.kind != Kind::Replay {
                        tm.add("auth.decide_us", us(d));
                    }
                }
                match first[h][i] {
                    None => first[h][i] = Some(v),
                    Some(f) => report.check(f == v, || {
                        format!("household {h} probe {i} decided {v:?}, earlier {f:?}")
                    }),
                }
                report.attempted += 1;
                report.failed += usize::from(!v.is_answer());
            }
            audits += echo_obs::take_audits().len();
        }
        round += 1;
    }
    let decisions: Vec<(u64, Verdict)> = first
        .iter()
        .enumerate()
        .flat_map(|(h, set)| {
            set.iter()
                .enumerate()
                .map(move |(i, v)| ((h * 1000 + i) as u64, v.expect("probed")))
        })
        .collect();
    report.digest = stats::digest(&decisions);
    println!(
        "timed: {} households ({} users, {} probes) in {:.3} s, digest {:016x}",
        round as usize * POOL,
        enroll_ms.len(),
        auth_ms.len() + id_ms.len(),
        t0.elapsed().as_secs_f64(),
        report.digest
    );

    let all = || {
        probe_sets
            .iter()
            .zip(&first)
            .flat_map(|(s, f)| s.iter().zip(f))
    };
    let count = |kind: Kind, pred: &dyn Fn(&Probe, Verdict) -> bool| {
        let of: Vec<_> = all().filter(|(p, _)| p.kind == kind).collect();
        let hits = of.iter().filter(|(p, v)| pred(p, v.expect("probed")));
        (hits.count(), of.len())
    };
    let right_user = |p: &Probe, v: Verdict| v == Verdict::Accepted(p.user);
    let rejected = |_: &Probe, v: Verdict| v == Verdict::Rejected;
    let (stopped, replays) = count(Kind::Replay, &rejected);
    let replay_rate = ratio(stopped, replays);
    println!("replay_reject_rate: {replay_rate:.4}");
    report.check(replay_rate >= 0.75, || {
        format!("replay_reject_rate {replay_rate:.4} below 0.75")
    });
    if ctx.trace {
        report
            .metrics
            .put("spatial.replay_reject_rate", replay_rate);
        let users = enroll_ms.len();
        per_layer(&mut report, &tm, &before, audits, users, &e2e, &path);
        return Ok(report);
    }

    // Reference: the first household once more on one thread must train
    // the very same model.
    let serial = EchoImagePipeline::new(pipeline.config().clone().with_threads(1));
    let (one, _) = onboard(
        &serial,
        &pool[0],
        None,
        &mut Vec::new(),
        &mut Report::default(),
    )?;
    report.check(one == reference, || {
        "threads=1 enrolment trained a different model".into()
    });

    let half = enroll_ms.len() / 2;
    println!("{}", stats::describe("enroll", "ms", &enroll_ms));
    println!(
        "{}",
        stats::describe("auth (probe decision)", "ms", &auth_ms)
    );
    println!("{}", stats::describe("identify (probe)", "ms", &id_ms));
    println!(
        "stationarity: enroll p50 first half {:.4} ms, second half {:.4} ms",
        stats::median(&enroll_ms[..half]).unwrap_or(0.0),
        stats::median(&enroll_ms[half..]).unwrap_or(0.0)
    );
    let done = report.attempted - report.failed;
    let auth_n = auth_ms.len();
    report.samples = vec![
        ("auth_p50_ms", auth_ms),
        ("enroll_p50_ms", enroll_ms),
        ("identify_p50_ms", id_ms),
    ];
    report.counts = vec![
        ("auth_slo_rate", (in_slo, auth_n)),
        ("genuine_accept_rate", count(Kind::Genuine, &right_user)),
        ("impostor_reject_rate", count(Kind::Impostor, &rejected)),
        ("identify_correct_rate", count(Kind::Identify, &right_user)),
        ("success_rate", (done, report.attempted)),
    ];
    Ok(report)
}
