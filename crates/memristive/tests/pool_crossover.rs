//! Determinism of the reported pool crossover under the
//! `RIME_POOL_CROSSOVER` env override — the knob benchmark runs use to
//! record one crossover across heterogeneous runners (the calibration
//! behind it is wall-clock-derived and machine-specific). No policy
//! consults the crossover; `Chip::pool_crossover_mats` reports it.
//!
//! This lives in its own integration-test binary because it mutates
//! process environment: Rust runs the tests of one binary in threads
//! sharing that environment, so the single `#[test]` here owns the
//! variable for the whole process lifetime.

use rime_memristive::{Chip, ChipGeometry, Direction, KeyFormat};

#[test]
fn env_override_pins_the_crossover_deterministically() {
    // Single-threaded env mutation before any chip consults it.
    // SAFETY-equivalent contract (stable set_var is not unsafe on this
    // toolchain): no other thread is running yet in this test binary.
    std::env::set_var("RIME_POOL_CROSSOVER", "7");

    // Every chip, however many times asked, resolves the same value —
    // no calibration noise can leak into the record.
    for _ in 0..3 {
        let chip = Chip::new(ChipGeometry::tiny());
        assert_eq!(chip.pool_crossover_mats(), 7);
        assert_eq!(chip.pool_crossover_mats(), 7, "repeated lookup is stable");
    }

    // Extraction does not disturb it.
    let mut chip = Chip::new(ChipGeometry::tiny());
    let keys: Vec<u64> = (0..64).map(|i| i * 37 % 251).collect();
    chip.store_keys(0, &keys, KeyFormat::UNSIGNED64).unwrap();
    chip.init_range(0, 64, KeyFormat::UNSIGNED64).unwrap();
    let _ = chip.extract_batch(Direction::Min, 4).unwrap();
    assert_eq!(chip.pool_crossover_mats(), 7);

    // Out-of-clamp and garbage values fall back safely: clamped into
    // [2, 2^20] or replaced by the measured value (never a panic).
    std::env::set_var("RIME_POOL_CROSSOVER", "1");
    let chip = Chip::new(ChipGeometry::tiny());
    assert_eq!(chip.pool_crossover_mats(), 2, "clamped to the minimum");

    std::env::set_var("RIME_POOL_CROSSOVER", "99999999");
    let chip = Chip::new(ChipGeometry::tiny());
    assert_eq!(
        chip.pool_crossover_mats(),
        1 << 20,
        "clamped to the maximum"
    );

    std::env::set_var("RIME_POOL_CROSSOVER", "not-a-number");
    let chip = Chip::new(ChipGeometry::tiny());
    let measured = chip.pool_crossover_mats();
    assert!(
        (2..=1 << 20).contains(&measured),
        "fell back to measurement"
    );
}
