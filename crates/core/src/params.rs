//! SP parameters: prefetch distance, degree, and ratio.

/// The Skip-Prefetching schedule parameters (paper §II.A).
///
/// The helper thread processes the outer hot loop in rounds of
/// `a_ski + a_pre` iterations: it *skips* the inner loops of the first
/// `a_ski` iterations (chasing only the backbone pointer) and
/// *pre-executes* the inner loops of the next `a_pre` iterations.
///
/// * `a_ski` is the **prefetch distance** — "schedules prefetches to get
///   ahead of main thread the proper amount of iteration in each round".
/// * `a_pre` is the **prefetch degree** — how many iterations each round
///   pre-executes.
/// * `RP = a_pre / (a_ski + a_pre)` is the **prefetch ratio** — the
///   fraction of delinquent loads the helper covers.
///
/// ```
/// use sp_core::SpParams;
/// // The paper's operating point for its low-CALR benchmarks:
/// let p = SpParams::from_distance_rp(16, 0.5);
/// assert_eq!((p.a_ski, p.a_pre), (16, 16));
/// assert_eq!(p.rp(), 0.5);
/// // Conventional helper prefetching covers everything:
/// assert_eq!(SpParams::conventional().rp(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpParams {
    /// Prefetch distance `A_SKI` (iterations skipped per round).
    pub a_ski: u32,
    /// Prefetch degree `A_PRE` (iterations pre-executed per round).
    pub a_pre: u32,
}

impl SpParams {
    /// Build a parameter set.
    ///
    /// # Panics
    /// If `a_pre == 0` (a helper that never prefetches is not SP).
    pub fn new(a_ski: u32, a_pre: u32) -> Self {
        assert!(a_pre > 0, "A_PRE must be positive");
        SpParams { a_ski, a_pre }
    }

    /// The prefetch ratio `RP = A_PRE / (A_SKI + A_PRE)`.
    pub fn rp(&self) -> f64 {
        self.a_pre as f64 / (self.a_ski + self.a_pre) as f64
    }

    /// Iterations per round.
    pub fn round_len(&self) -> u32 {
        self.a_ski + self.a_pre
    }

    /// The prefetch distance (`A_SKI`).
    pub fn distance(&self) -> u32 {
        self.a_ski
    }

    /// Derive `(A_SKI, A_PRE)` from constants.
    ///
    /// # Panics
    /// On any [`try_from_distance_rp`](Self::try_from_distance_rp) error.
    pub fn from_distance_rp(distance: u32, rp: f64) -> Self {
        Self::try_from_distance_rp(distance, rp).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Derive `(A_SKI, A_PRE)` from a prefetch distance and a target
    /// ratio — the parameterization the paper's sweeps use (they fix
    /// `RP = 0.5` and grow the distance, so `A_PRE = A_SKI`).
    ///
    /// `A_PRE` is rounded to the nearest positive integer satisfying
    /// `A_PRE / (A_SKI + A_PRE) ≈ rp`. `RP = 1` means `A_SKI = 0`
    /// (conventional helper prefetching covers everything), so it takes
    /// only distance 0. The round `A_SKI + A_PRE` must fit a `u32`.
    pub fn try_from_distance_rp(distance: u32, rp: f64) -> Result<Self, ParamsError> {
        if !(rp > 0.0 && rp <= 1.0) {
            return Err(ParamsError::RatioOutOfRange);
        }
        if (rp - 1.0).abs() < 1e-12 {
            if distance != 0 {
                return Err(ParamsError::DistanceAtFullRatio);
            }
            return Ok(SpParams::new(0, 1));
        }
        let a_pre = ((distance as f64 * rp / (1.0 - rp)).round() as u32).max(1);
        if distance.checked_add(a_pre).is_none() {
            return Err(ParamsError::RoundTooLong);
        }
        Ok(SpParams::new(distance, a_pre))
    }

    /// Conventional helper-threaded prefetching (the paper's contrast
    /// case): the helper covers *every* delinquent load (`RP = 1`).
    pub fn conventional() -> Self {
        SpParams::new(0, 1)
    }
}

/// A broken rule of [`SpParams::try_from_distance_rp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamsError {
    /// `rp` is outside `(0, 1]` or NaN.
    RatioOutOfRange,
    /// `rp == 1` with a nonzero distance.
    DistanceAtFullRatio,
    /// `A_SKI + A_PRE` overflows a `u32`.
    RoundTooLong,
}

impl std::fmt::Display for ParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ParamsError::RatioOutOfRange => "RP must be in (0, 1]",
            ParamsError::DistanceAtFullRatio => "RP = 1 makes a nonzero distance inconsistent",
            ParamsError::RoundTooLong => "A_SKI + A_PRE must fit a u32",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rp_matches_definition() {
        let p = SpParams::new(10, 10);
        assert!((p.rp() - 0.5).abs() < 1e-12);
        assert_eq!(p.round_len(), 20);
        assert_eq!(p.distance(), 10);
        let p = SpParams::new(0, 5);
        assert!((p.rp() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_distance_rp_half_splits_the_round_evenly() {
        for d in [1u32, 2, 10, 800, 3150] {
            let p = SpParams::from_distance_rp(d, 0.5);
            assert_eq!(p.a_ski, d);
            assert_eq!(p.a_pre, d);
        }
    }

    #[test]
    fn from_distance_rp_quarter() {
        // rp 0.25 -> a_pre = a_ski / 3.
        let p = SpParams::from_distance_rp(9, 0.25);
        assert_eq!(p.a_ski, 9);
        assert_eq!(p.a_pre, 3);
        assert!((p.rp() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn zero_distance_keeps_positive_degree() {
        let p = SpParams::from_distance_rp(0, 0.5);
        assert_eq!(p.a_ski, 0);
        assert!(p.a_pre >= 1);
    }

    #[test]
    fn conventional_is_rp_one() {
        let p = SpParams::conventional();
        assert!((p.rp() - 1.0).abs() < 1e-12);
        assert_eq!(p.distance(), 0);
    }

    #[test]
    fn rp_one_via_from_distance() {
        let p = SpParams::from_distance_rp(0, 1.0);
        assert!((p.rp() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "A_PRE must be positive")]
    fn zero_a_pre_rejected() {
        let _ = SpParams::new(5, 0);
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn rp_one_with_distance_rejected() {
        let _ = SpParams::from_distance_rp(5, 1.0);
    }

    #[test]
    #[should_panic(expected = "RP must be in")]
    fn rp_out_of_range_rejected() {
        let _ = SpParams::from_distance_rp(5, 0.0);
    }

    #[test]
    fn try_from_distance_rp_names_each_broken_rule() {
        let err = |d, rp| SpParams::try_from_distance_rp(d, rp).unwrap_err();
        for rp in [0.0, -0.5, 1.5, 2.0, f64::NAN] {
            assert_eq!(err(5, rp), ParamsError::RatioOutOfRange);
        }
        assert_eq!(err(4, 1.0), ParamsError::DistanceAtFullRatio);
        assert_eq!(err(u32::MAX, 0.5), ParamsError::RoundTooLong);
        // The largest even split still fits.
        let p = SpParams::try_from_distance_rp(u32::MAX / 2, 0.5).unwrap();
        assert_eq!(p.round_len(), u32::MAX - 1);
    }
}
