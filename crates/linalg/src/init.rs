//! Weight initializers and the Gaussian sampler they share.
//!
//! `rand` (without `rand_distr`) only provides uniform sampling, so the
//! normal draws used by He initialization are produced by the
//! Box–Muller transform implemented here.

use crate::matrix::Matrix;
use rand::Rng;

/// Draw one standard-normal sample via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    // u1 in (0, 1] to avoid ln(0).
    let u1: f32 = 1.0 - rng.gen::<f32>();
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Draw a normal sample with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f32, std_dev: f32) -> f32 {
    mean + std_dev * standard_normal(rng)
}

/// He-normal initialization: `N(0, sqrt(2 / fan_in))`.
///
/// Suitable for the leaky-ReLU layers of the state module (the paper's
/// state network uses leaky rectifiers).
pub fn he_normal<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize) -> Matrix {
    let std_dev = (2.0 / rows as f32).sqrt();
    gaussian_matrix(rng, rows, cols, std_dev)
}

/// A matrix of iid `N(0, std_dev²)` entries.
pub fn gaussian_matrix<R: Rng + ?Sized>(
    rng: &mut R,
    rows: usize,
    cols: usize,
    std_dev: f32,
) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| std_dev * standard_normal(rng))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 50_000;
        let samples: Vec<f32> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn he_std_dev_matches_fan_in() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = he_normal(&mut rng, 512, 256);
        let var = m.norm_sq() / m.len() as f32;
        let expect = 2.0 / 512.0;
        assert!((var - expect).abs() / expect < 0.15, "var {var} expect {expect}");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = he_normal(&mut StdRng::seed_from_u64(3), 8, 8);
        let b = he_normal(&mut StdRng::seed_from_u64(3), 8, 8);
        assert_eq!(a, b);
    }
}
