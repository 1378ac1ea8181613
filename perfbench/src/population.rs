//! The in-process evaluation population: households of simulated users,
//! their enrolment visits, held-out probe trains, unenrolled impostors
//! and replay recordings, all rendered through `echo-sim`.
//!
//! The population is pinned by [`POP_SEED`], not by `--seed`: the
//! accuracy metrics are then the same figures on every run, so any
//! change in them is a change in the program. `--seed` varies the order
//! and timing of the operations instead.

use echo_sim::{BeepCapture, BodyModel, Placement, Scene, SceneConfig, SpoofPlan};
use echoimage_core::auth::{AuthConfig, Authenticator};
use echoimage_core::enrollment::{enrollment_features, EnrollmentConfig};
use echoimage_core::pipeline::EchoImagePipeline;
use echoimage_core::store::{MemoryStore, TemplateBuilder};
use echoimage_core::EchoImageError;
use std::sync::Arc;

/// Seed of the simulated population and room.
pub const POP_SEED: u64 = 0xEC40_1A6E;
/// Users per household.
pub const HOUSEHOLD: usize = 4;
/// Beeps per train.
pub const BEEPS: usize = 3;
/// User–speaker distance, metres.
pub const DISTANCE: f64 = 0.7;
/// Enrolment visits per user.
pub const VISITS: u32 = 2;

/// A household's enrolment corpus: `(user id, enrolment features)` in
/// enrolment order.
pub type Corpus = Vec<(usize, Vec<Vec<f64>>)>;

/// One enrolled user's captures.
pub struct Member {
    /// Enrolled user id (1-based within the household).
    pub id: usize,
    /// Enrolment visits, one train each.
    pub visits: Vec<Vec<BeepCapture>>,
    /// Held-out genuine trains from sessions not used at enrolment.
    pub tests: Vec<Vec<BeepCapture>>,
    /// A replay of one of this user's recorded trains, played from a
    /// loudspeaker where the user stands.
    pub replay: Vec<BeepCapture>,
}

/// A household: its members and the unenrolled bodies that will claim
/// to be them.
pub struct Household {
    pub members: Vec<Member>,
    pub impostors: Vec<Vec<BeepCapture>>,
}

/// The shared acoustic scene every capture is rendered in.
pub fn scene() -> Scene {
    Scene::new(SceneConfig::laboratory_quiet(POP_SEED))
}

/// Renders household `h` with `tests` genuine trains per member and
/// `impostors` unenrolled bodies.
pub fn render_household(scene: &Scene, h: usize, tests: usize, impostors: usize) -> Household {
    let placement = Placement::standing_front(DISTANCE);
    let members = (0..HOUSEHOLD)
        .map(|k| {
            let tag = (h * 16 + k) as u64;
            let body = BodyModel::from_seed(POP_SEED ^ (1_000 + tag));
            let salt = tag * 100_000;
            let visits = (0..VISITS)
                .map(|v| scene.capture_train(&body, &placement, v, BEEPS, salt + v as u64 * 100))
                .collect();
            let tests = (0..tests)
                .map(|t| {
                    let session = 10 + t as u32;
                    scene.capture_train(
                        &body,
                        &placement,
                        session,
                        BEEPS,
                        salt + 1_000 + t as u64 * 100,
                    )
                })
                .collect();
            let recording = scene.capture_train(&body, &placement, 30, BEEPS, salt + 3_000);
            let plan = SpoofPlan::replay_of(&recording, DISTANCE, POP_SEED ^ tag);
            let replay = plan.capture_train(scene, &placement, 40, BEEPS, salt + 4_000);
            Member {
                id: k + 1,
                visits,
                tests,
                replay,
            }
        })
        .collect();
    let impostors = (0..impostors)
        .map(|j| {
            let tag = (h * 16 + j) as u64;
            let body = BodyModel::from_seed(POP_SEED ^ (900_000 + tag));
            scene.capture_train(
                &body,
                &placement,
                20 + j as u32,
                BEEPS,
                7_000_000 + tag * 100,
            )
        })
        .collect();
    Household { members, impostors }
}

/// The measured enrolment operation: one user's enrolment features,
/// then [`Authenticator::enroll`] over the household so far.
pub fn enroll_member(
    pipeline: &EchoImagePipeline,
    member: &Member,
    so_far: &mut Corpus,
) -> Result<Authenticator, EchoImageError> {
    let feats = enrollment_features(pipeline, &member.visits, &EnrollmentConfig::default())?;
    so_far.push((member.id, feats));
    Authenticator::enroll(so_far, &AuthConfig::default())
}

/// The household's identification store: one template per member
/// under the authenticator's scaler, as the daemon's tenants keep.
pub fn household_store(
    auth: &Authenticator,
    enrolled: &[(usize, Vec<Vec<f64>>)],
) -> Result<MemoryStore, EchoImageError> {
    let builder = TemplateBuilder::new(auth.scaler().clone(), AuthConfig::default());
    let templates = enrolled
        .iter()
        .map(|(id, feats)| {
            builder
                .build_user(*id as u64, std::slice::from_ref(feats))
                .map(Arc::new)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(MemoryStore::from_templates(builder.scaler(), templates)?)
}
