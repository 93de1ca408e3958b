//! The runner is itself pinned: golden draws, bounds, replay, shrinking.

use super::*;
use std::cell::{Cell, RefCell};

/// The first 8 draws of `(seed, case) = (42, 1)` at full size, as `{:?}`.
fn draws<T: std::fmt::Debug>(mut draw: impl FnMut(&mut Gen) -> T) -> String {
    let mut g = Gen::from_seed(mix(42) ^ mix(!1));
    format!("{:?}", Vec::from_iter((0..8).map(|_| draw(&mut g))))
}

#[test]
fn same_seed_and_case_give_the_same_draws_on_every_platform() {
    let golden = [
        (draws(|g| g.any::<u64>()), "[13011473439297890698, 6721534389396989239, 12689992925299205888, 11237445223595406065, 14244088663543244930, 8102189021558773354, 10346890545870636422, 14717465281635791444]"),
        (draws(|g| g.any::<u8>()), "[138, 55, 0, 241, 130, 106, 134, 84]"),
        (draws(|g| g.any::<[u8; 2]>()), "[[138, 55], [0, 241], [130, 106], [134, 84], [171, 188], [78, 90], [251, 179], [48, 99]]"),
        (draws(|g| g.any::<bool>()), "[true, false, true, true, true, false, true, true]"),
        (draws(|g| g.range(10u64..1000)), "[338, 989, 888, 975, 720, 674, 642, 54]"),
        (draws(|g| g.range(1usize..=3)), "[2, 2, 3, 3, 3, 2, 3, 3]"),
        (draws(|g| g.range(0.0f64..0.35).to_bits()), "[4598062582211930466, 4593762819189537271, 4597842820141814176, 4596849867611352595, 4598540204910327927, 4594706626066991615, 4596241089999626678, 4598702003559090028]"),
        (draws(|g| g.vec(0..4, |g| g.any::<u8>())), "[[55, 0], [130], [134, 84], [188, 78, 90], [179, 48, 99], [], [181], [163]]"),
        (draws(|g| g.option(|g| g.any::<u8>())), "[None, Some(0), Some(130), None, None, None, Some(188), None]"),
        (draws(|g| g.one_of(&['a', 'b', 'c'])), "['b', 'b', 'c', 'c', 'c', 'b', 'c', 'c']"),
        (draws(|g| g.btree_set(0..3, |g| g.range(0u8..10))), "[{9}, {0, 5}, {2}, {6, 7}, {3, 4}, {1, 4}, {3}, {3, 9}]"),
        (draws(|g| g.btree_map(1..3, |g| g.range(0u8..10), |g| g.any::<bool>())), "[{9: true}, {0: false, 2: true}, {4: false, 6: false}, {2: false, 4: true}, {3: true, 6: false}, {0: true, 7: false}, {6: false, 9: false}, {1: false, 4: false}]"),
    ];
    for (drawn, expected) in golden {
        assert_eq!(drawn, expected);
    }
    // A property's default seed is a function of its name alone.
    assert_eq!(name_seed("prop_u64_round_trip"), 0xc97e_9a1e_d5e9_2735);
}

#[test]
fn every_generator_honours_its_bounds_at_every_size() {
    for size in [0, 1, 7, FULL_SIZE / 2, FULL_SIZE] {
        for case in 0..200 {
            let g = &mut Gen::from_seed(case);
            g.size = size;
            // Single-value ranges have one answer.
            assert_eq!((g.range(5u8..6), g.range(9u64..=9)), (5, 9));
            assert_eq!(g.range(1.0f64..1.000_000_000_000_000_2), 1.0);
            let int = g.range(3u32..17);
            let wide = g.range(1..=u64::MAX);
            let float = g.range(-1.5f64..2.5);
            let vec = g.vec(2..5, |g| g.any::<u8>());
            let fixed = g.vec(24..=24, |g| g.any::<bool>());
            let map = g.btree_map(1..4, |g| g.range(0u8..4), |g| g.range(7u16..9));
            let set = g.btree_set(2..=2, |g| g.range(10usize..12));
            let option = g.option(|g| g.range(0usize..3));
            let choice = g.one_of(&[10, 20, 30]);
            assert!((3..17).contains(&int) && wide >= 1);
            assert!((-1.5..2.5).contains(&float), "half-open: {float}");
            assert!((2..5).contains(&vec.len()) && fixed.len() == 24);
            assert!(
                (1..4).contains(&map.len())
                    && map.iter().all(|(k, v)| *k < 4 && (7..9).contains(v))
            );
            assert_eq!(Vec::from_iter(set), [10, 11]);
            assert!(option.is_none_or(|x| x < 3) && choice % 10 == 0);
            if size == 0 {
                // Size 0 is every draw's lower bound.
                assert_eq!((int, wide, float), (3, 1, -1.5));
                assert_eq!((vec.len(), map.len(), option, choice), (2, 1, None, 10));
            }
        }
    }
    // An empty range has nothing to draw, whoever asks.
    #[allow(clippy::reversed_empty_ranges)] // the point of the second row
    let empty: [fn(&mut Gen); 6] = [
        |g| assert_eq!(g.range(4u8..4), 0),
        |g| assert_eq!(g.range(5usize..=4), 0),
        |g| assert_eq!(g.range(1.0f64..1.0), 0.0),
        |g| drop(g.vec(0..0, |g| g.any::<u8>())),
        |g| assert_eq!(g.one_of::<u8>(&[]), 0),
        |g| drop(g.btree_set(3..4, |g| g.range(0u8..2))),
    ];
    for draw in empty {
        assert!(matches!(attempt(&draw, 1, 1, FULL_SIZE), Outcome::Fail(_)));
    }
}

#[test]
fn a_false_property_fails_and_replays_from_its_seed_and_case() {
    let seen = RefCell::new(Vec::new());
    let prop = |g: &mut Gen| {
        let input = g.vec(0..40, |g| g.range(0u32..1000));
        seen.borrow_mut().push(input.clone());
        assert!(input.iter().all(|x| *x < 900), "saw {input:?}");
    };
    let seed = name_seed("false");
    let failure = run(seed, 0, 256, &prop).unwrap_err();
    let first_run = seen.take();
    let replay = format!("{seed}:{}", failure.0);
    let report = report("false", seed, &failure);
    assert!(report.contains(&format!("{REPLAY_VAR}={replay} cargo test false")));
    assert!(failure.2.starts_with("saw [") && report.ends_with(&failure.2));

    // Replaying fails at the same case, on the same inputs, shrink included.
    assert_eq!(parse_replay(&replay), Some((seed, failure.0)));
    assert_eq!(run(seed, failure.0, 1, &prop), Err(failure.clone()));
    let replayed = seen.take();
    assert!(replayed.len() >= 2 && first_run.ends_with(&replayed));
    // Once fixed, the replayed case passes and nothing else runs.
    let fixed = |g: &mut Gen| seen.borrow_mut().push(vec![g.any()]);
    assert_eq!(run(seed, failure.0, 1, &fixed), Ok(()));
    assert_eq!(seen.take().len(), 1);
    assert_eq!((parse_replay("12"), parse_replay("0xZZ:1")), (None, None));
}

#[test]
fn shrinking_reports_a_failing_input_no_larger_than_the_original() {
    for limit in [0usize, 3, 10, 25, 62] {
        let prop = |g: &mut Gen| assert!(g.vec(0..64, |g| g.any::<u8>()).len() <= limit);
        let (case, size, _) = run(7, 0, 256, &prop).unwrap_err();
        assert!(size <= FULL_SIZE);
        assert!(matches!(attempt(&prop, 7, case, size), Outcome::Fail(_)));
        let smaller = attempt(&prop, 7, case, size / 2);
        assert!(size == 0 || matches!(smaller, Outcome::Pass));
    }
    // Failing at every size shrinks all the way, keeping the last message.
    let always = |g: &mut Gen| panic!("{}", g.size);
    assert_eq!(run(7, 0, 1, &always), Err((0, 0, "0".to_owned())));
}

#[test]
fn rejected_cases_are_replaced_not_counted() {
    let accepted = Cell::new(0);
    let prop = |g: &mut Gen| {
        if g.any::<bool>() {
            reject();
        }
        accepted.set(accepted.get() + 1);
    };
    assert_eq!((run(7, 0, 50, &prop), accepted.get()), (Ok(()), 50));
    // A precondition nothing meets is a loud failure, not a silent pass.
    assert!(catch_unwind(|| run(7, 0, 4, &|_: &mut Gen| reject())).is_err());
}
