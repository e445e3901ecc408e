//! The move-based annealer is the flag-vector annealer, to the bit.
//!
//! `ScheduleProblem` proposes a flip over cached interval costs instead of
//! cloning a `Vec<bool>` and re-evaluating Eq. (4) from scratch. Two checks
//! carry the claim that nothing but the cost of a move changed:
//!
//! * a golden table of whole searches, recorded with the clone-and-re-evaluate
//!   engine before it was ported;
//! * a property test of every single `propose` / `commit` against the
//!   from-scratch definition.
//!
//! Summing the tail of the cached costs before the head, or returning
//! `current + Δ` from `propose`, fails both.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ulba_anneal::AnnealProblem;
use ulba_model::schedule::{total_time, Method, Schedule};
use ulba_model::search::{anneal_schedule, AnnealSearchConfig, ScheduleProblem};
use ulba_model::InstanceDistribution;

/// `anneal_schedule(..).time.to_bits()` and `.schedule.steps()` on
/// `sample_many(16, 2019)`, instance `i` searched with the default
/// configuration at `seed = 2019 + i`, under `Ulba { alpha }` then `Standard`.
const GOLDEN: [(u64, &[u32]); 32] = [
    (0x40932fc26c41d68e, &[12, 53]),
    (0x4093f473e4ca5740, &[26, 48, 76]),
    (0x4091c23d4b78f844, &[]),
    (0x409192da2b5f9d18, &[50]),
    (0x4081ccd7c1245df6, &[]),
    (0x4081b7c79f2f4e87, &[52]),
    (0x408dbe78181b242e, &[15]),
    (0x408d906ed64fce5a, &[15, 30, 45, 62, 77, 89]),
    (0x4079f85c91cf867f, &[6]),
    (0x407abae29554ed30, &[17, 31, 47, 57, 68, 84]),
    (0x407faf6b7009da0f, &[3]),
    (0x4080ff00b88710e2, &[12, 32, 46, 64, 86]),
    (0x4064e2e8ab97c642, &[12]),
    (0x40654065e203dff1, &[22, 45, 74]),
    (0x40870270581fb3f1, &[61]),
    (0x40869ea484296ac4, &[26, 61]),
    (0x407c4c2ac762856f, &[]),
    (0x407c4c2ac762856f, &[]),
    (0x408036e490670494, &[]),
    (0x408036e490670494, &[]),
    (0x4072304f8bcdb44f, &[15]),
    (0x4072428a3d4de2f9, &[40, 73]),
    (0x40850be8d132619c, &[]),
    (0x4084ed0a64570d81, &[36, 67]),
    (0x408e29f3779495b6, &[]),
    (0x408e29f3779495b6, &[]),
    (0x4091da9ba891b86d, &[13, 53]),
    (0x40934e95ac10a7a6, &[20, 47, 69]),
    (0x408a00bb0008eb75, &[]),
    (0x408998807ec798bc, &[23, 49, 78]),
    (0x4089cda650f37073, &[7, 24, 51, 76]),
    (0x408be6ab9aeb1941, &[16, 27, 44, 53, 69, 82]),
];

#[test]
fn searches_reproduce_the_golden_table() {
    let instances = InstanceDistribution::default().sample_many(16, 2019);
    let mut golden = GOLDEN.iter();
    for (i, inst) in instances.iter().enumerate() {
        let config = AnnealSearchConfig { seed: 2019 + i as u64, ..AnnealSearchConfig::default() };
        for method in [Method::Ulba { alpha: inst.alpha }, Method::Standard] {
            let found = anneal_schedule(&inst.params, method, config);
            let &(time_bits, steps) = golden.next().expect("32 rows");
            assert_eq!(
                (found.time.to_bits(), found.schedule.steps()),
                (time_bits, steps),
                "instance {i} under {method:?}: {} s",
                found.time
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every proposed energy is Eq. (4) of the candidate evaluated from
    /// scratch, and every commit is the flip of one flag.
    #[test]
    fn every_move_matches_the_from_scratch_definition(
        seed in any::<u64>(),
        gamma in 2u32..=120,
        standard in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = InstanceDistribution { gamma, ..Default::default() }.sample(&mut rng);
        let method = if standard { Method::Standard } else { Method::Ulba { alpha: inst.alpha } };
        let problem = ScheduleProblem::new(&inst.params, method);

        let mut flags = vec![false; gamma as usize];
        let mut state = problem.state(&Schedule::from_flags(&flags));
        for _ in 0..300 {
            let (flip, energy) = problem.propose(&state, &mut rng);
            let at = flip.iteration() as usize;
            prop_assert!((1..gamma as usize).contains(&at));
            flags[at] = !flags[at];
            let candidate = Schedule::from_flags(&flags);
            prop_assert_eq!(energy.to_bits(), total_time(&inst.params, &candidate, method).to_bits());
            if rng.random::<bool>() {
                problem.commit(&mut state, flip);
                prop_assert_eq!(state.boundaries(), &candidate.boundaries()[..]);
                prop_assert_eq!(problem.energy(&state).to_bits(), energy.to_bits());
            } else {
                flags[at] = !flags[at];
            }
        }
    }
}
