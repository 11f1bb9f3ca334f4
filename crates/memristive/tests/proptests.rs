//! Property-based tests for the memristive substrate: the bit-serial
//! hardware model must agree with ordinary comparison-based ranking for
//! every format, and the walk's index reduction must behave as a
//! priority encoder.

use proptest::prelude::*;
use rime_memristive::reference::{
    algorithm1_unsigned_min, extreme_row, extreme_row_by_compare, run_plan,
};
use rime_memristive::{
    Bitmap, Chip, ChipGeometry, Direction, KeyFormat, ParallelPolicy, SearchPlan, SortableBits,
};

fn full(n: usize) -> Bitmap {
    Bitmap::ones(n)
}

fn sort_on_chip<T: SortableBits>(keys: &[T], direction: Direction) -> Vec<u64> {
    let mut chip = Chip::new(ChipGeometry::small());
    let raw: Vec<u64> = keys.iter().map(|k| k.to_raw_bits()).collect();
    chip.store_keys(0, &raw, T::FORMAT).unwrap();
    chip.init_range(0, keys.len() as u64, T::FORMAT).unwrap();
    let mut out = Vec::new();
    while let Some(hit) = chip.extract(direction).unwrap() {
        out.push(hit.raw_bits);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chip_sorts_u32_like_std(keys in prop::collection::vec(any::<u32>(), 1..40)) {
        let got = sort_on_chip(&keys, Direction::Min);
        let mut want = keys.clone();
        want.sort_unstable();
        prop_assert_eq!(got, want.iter().map(|k| *k as u64).collect::<Vec<_>>());
    }

    #[test]
    fn chip_sorts_i64_like_std(keys in prop::collection::vec(any::<i64>(), 1..40)) {
        let got = sort_on_chip(&keys, Direction::Min);
        let mut want = keys.clone();
        want.sort_unstable();
        prop_assert_eq!(got, want.iter().map(|k| k.to_raw_bits()).collect::<Vec<_>>());
    }

    #[test]
    fn chip_sorts_f32_like_total_cmp(keys in prop::collection::vec(any::<f32>(), 1..40)) {
        let got = sort_on_chip(&keys, Direction::Min);
        let mut want = keys.clone();
        want.sort_unstable_by(f32::total_cmp);
        prop_assert_eq!(got, want.iter().map(|k| k.to_raw_bits()).collect::<Vec<_>>());
    }

    #[test]
    fn chip_sorts_f64_descending_with_max(keys in prop::collection::vec(any::<f64>(), 1..32)) {
        let got = sort_on_chip(&keys, Direction::Max);
        let mut want = keys.clone();
        want.sort_unstable_by(|a, b| b.total_cmp(a));
        prop_assert_eq!(got, want.iter().map(|k| k.to_raw_bits()).collect::<Vec<_>>());
    }

    #[test]
    fn plan_min_matches_compare_u64(keys in prop::collection::vec(any::<u64>(), 1..64)) {
        let plan = SearchPlan::new(KeyFormat::UNSIGNED64, Direction::Min);
        let got = extreme_row(&plan, &keys, &full(keys.len()));
        let want = extreme_row_by_compare(KeyFormat::UNSIGNED64, true, &keys, &full(keys.len()));
        prop_assert_eq!(got, want);
    }

    #[test]
    fn plan_max_matches_compare_f64(vals in prop::collection::vec(any::<f64>(), 1..64)) {
        let keys: Vec<u64> = vals.iter().map(|v| v.to_raw_bits()).collect();
        let plan = SearchPlan::new(KeyFormat::FLOAT64, Direction::Max);
        let got = extreme_row(&plan, &keys, &full(keys.len()));
        let want = extreme_row_by_compare(KeyFormat::FLOAT64, false, &keys, &full(keys.len()));
        prop_assert_eq!(got, want);
    }

    #[test]
    fn generalized_plan_equals_literal_algorithm1(
        keys in prop::collection::vec(0u64..256, 1..64),
    ) {
        let lit = algorithm1_unsigned_min(&keys, 8, &full(keys.len()));
        let plan = SearchPlan::new(KeyFormat::unsigned_fixed(8, 0), Direction::Min);
        let gen = run_plan(&plan, &keys, &full(keys.len()));
        prop_assert_eq!(lit, gen);
    }

    #[test]
    fn survivors_are_exactly_the_ties(keys in prop::collection::vec(0u64..16, 1..48)) {
        let plan = SearchPlan::new(KeyFormat::unsigned_fixed(4, 0), Direction::Min);
        let set = run_plan(&plan, &keys, &full(keys.len()));
        let min = *keys.iter().min().unwrap();
        for (row, &key) in keys.iter().enumerate() {
            prop_assert_eq!(set.get(row), key == min, "row {}", row);
        }
    }

    #[test]
    fn walk_reduction_is_priority_encoder(
        keys in prop::collection::vec(0u64..4, 1..64),
    ) {
        // The walk's index reduction (Fig. 10) over a two-mat chip: every
        // extraction returns the lowest-addressed of the remaining
        // minima, so ties across mats resolve to the lower mat.
        let mut chip = Chip::new(ChipGeometry::tiny());
        chip.set_parallel_policy(ParallelPolicy::Sequential);
        chip.store_keys(0, &keys, KeyFormat::UNSIGNED64).unwrap();
        chip.init_range(0, keys.len() as u64, KeyFormat::UNSIGNED64).unwrap();
        let mut left: Vec<(u64, u64)> = keys.iter().copied().zip(0..).collect();
        left.sort_unstable();
        for (key, slot) in left {
            let hit = chip.extract(Direction::Min).unwrap().unwrap();
            prop_assert_eq!((hit.raw_bits, hit.slot), (key, slot));
        }
        prop_assert_eq!(chip.extract(Direction::Min).unwrap(), None);
    }

    #[test]
    fn rank_k_via_repeated_extraction(
        keys in prop::collection::vec(any::<u32>(), 1..32),
        k in 0usize..32,
    ) {
        prop_assume!(k < keys.len());
        let mut chip = Chip::new(ChipGeometry::small());
        let raw: Vec<u64> = keys.iter().map(|v| v.to_raw_bits()).collect();
        chip.store_keys(0, &raw, KeyFormat::UNSIGNED32).unwrap();
        chip.init_range(0, keys.len() as u64, KeyFormat::UNSIGNED32).unwrap();
        let mut hit = None;
        for _ in 0..=k {
            hit = chip.extract(Direction::Min).unwrap();
        }
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        prop_assert_eq!(hit.unwrap().raw_bits, sorted[k] as u64);
    }
}
