//! A small feed-forward neural network (the Keras-classifier substitute).
//!
//! The paper's healthcare and adult-complex pipelines train a Keras neural
//! network. For the end-to-end experiments (Fig. 8, Table 5) any comparable
//! trainable model suffices. This single-hidden-layer MLP trains by batch-1
//! SGD backprop, the paper's Keras setting, and its accuracy varies
//! run-to-run with the stochastic split/init. It trains in milliseconds, so
//! unlike in the paper preprocessing, not training, dominates the healthcare
//! runtime (EXPERIMENTS.md, Fig 8).
//!
//! Training and prediction walk each row's non-zero features only, over
//! feature-major weights: a design matrix of one-hot blocks is mostly zeros,
//! and a zero input only adds or subtracts ±0, which changes no weight (no
//! weight is ever -0). Each unit's sum and each weight's updates keep the
//! order of a dense per-unit loop, so the weights and probabilities equal
//! that loop's bit for bit; the tests keep it as the reference.

use crate::error::{Result, SkError};
use crate::matrix::Matrix;
use etypes::Prng;

/// Substream id for weight init + epoch shuffling (distinct from the
/// split stream so a shared user seed stays decorrelated).
const STREAM_MLP: u64 = 3;

/// One-hidden-layer binary classifier: `sigmoid(W2 · relu(W1 x + b1) + b2)`.
#[derive(Debug, Clone)]
pub struct MlpClassifier {
    /// Hidden layer width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Seed for weight init and shuffling.
    pub seed: u64,
    /// Hidden-layer weights, feature-major `features × hidden`: row `k`
    /// holds feature `k`'s weight into every hidden unit.
    w1: Vec<f64>,
    features: usize,
    b1: Vec<f64>,
    w2: Vec<f64>,
    b2: f64,
    fitted: bool,
}

impl MlpClassifier {
    /// Comparable to the paper's small Keras net (two dense layers).
    pub fn new(hidden: usize) -> MlpClassifier {
        MlpClassifier {
            hidden,
            epochs: 30,
            learning_rate: 0.05,
            seed: 0,
            w1: Vec::new(),
            features: 0,
            b1: Vec::new(),
            w2: Vec::new(),
            b2: 0.0,
            fitted: false,
        }
    }

    /// Override the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Train on features and 0/1 labels.
    pub fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        if x.nrows() != y.len() {
            return Err(SkError::Shape(format!(
                "{} rows vs {} labels",
                x.nrows(),
                y.len()
            )));
        }
        if x.nrows() == 0 || self.hidden == 0 {
            return Err(SkError::Invalid("empty training set or zero hidden".into()));
        }
        let d = x.ncols();
        let hidden = self.hidden;
        let mut rng = Prng::from_stream(self.seed, STREAM_MLP);
        let scale = (2.0 / d.max(1) as f64).sqrt();
        // Drawn unit by unit (each unit's `d` weights in turn), stored
        // transposed.
        self.w1 = vec![0.0; d * hidden];
        for j in 0..hidden {
            for k in 0..d {
                self.w1[k * hidden + j] = rng.range_f64(-scale, scale);
            }
        }
        self.features = d;
        self.b1 = vec![0.0; hidden];
        let scale2 = (2.0 / hidden as f64).sqrt();
        self.w2 = (0..hidden)
            .map(|_| rng.range_f64(-scale2, scale2))
            .collect();
        self.b2 = 0.0;

        let rows = NonZeros::of(x);
        let lr = self.learning_rate;
        let mut order: Vec<usize> = (0..x.nrows()).collect();
        let mut z = vec![0.0; hidden]; // hidden pre-activations
        let mut step = vec![0.0; hidden]; // lr · dL/dz per unit
        for _ in 0..self.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let row = rows.row(i);
                // Forward.
                self.pre_activation(row, &mut z);
                let p = sigmoid(self.output(&z));
                // Backward (cross-entropy). A unit with relu' = 0 gets a
                // zero step, which changes none of its weights.
                let dz2 = p - y[i];
                for (((w2j, &zj), sj), b1j) in
                    self.w2.iter_mut().zip(&z).zip(&mut step).zip(&mut self.b1)
                {
                    let dh = *w2j * dz2 * (zj > 0.0) as i64 as f64;
                    *w2j -= lr * dz2 * zj.max(0.0);
                    *sj = lr * dh;
                    *b1j -= *sj;
                }
                for &(k, xk) in row {
                    for (w, sj) in self.w1[k * hidden..(k + 1) * hidden].iter_mut().zip(&step) {
                        *w -= sj * xk;
                    }
                }
                self.b2 -= lr * dz2;
            }
        }
        self.fitted = true;
        Ok(())
    }

    /// `z = W1 x + b1` over one row's non-zeros, each unit summing its
    /// products in feature order and adding its bias last.
    fn pre_activation(&self, row: &[(usize, f64)], z: &mut [f64]) {
        let hidden = self.hidden;
        z.fill(0.0);
        for &(k, xk) in row {
            for (zj, w) in z.iter_mut().zip(&self.w1[k * hidden..(k + 1) * hidden]) {
                *zj += w * xk;
            }
        }
        for (zj, bj) in z.iter_mut().zip(&self.b1) {
            *zj += bj;
        }
    }

    /// The output unit's pre-activation `W2 · relu(z) + b2`.
    fn output(&self, z: &[f64]) -> f64 {
        self.w2
            .iter()
            .zip(z)
            .map(|(w, zj)| w * zj.max(0.0))
            .sum::<f64>()
            + self.b2
    }

    /// P(class 1) per row.
    pub fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        if !self.fitted {
            return Err(SkError::NotFitted("MlpClassifier"));
        }
        let d = self.features;
        if x.ncols() != d {
            return Err(SkError::Shape(format!(
                "model expects {d} features, input has {}",
                x.ncols()
            )));
        }
        let rows = NonZeros::of(x);
        let mut z = vec![0.0; self.hidden];
        Ok((0..x.nrows())
            .map(|i| {
                self.pre_activation(rows.row(i), &mut z);
                sigmoid(self.output(&z))
            })
            .collect())
    }

    /// Hard 0/1 predictions.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        Ok(self
            .predict_proba(x)?
            .into_iter()
            .map(|p| (p >= 0.5) as i64 as f64)
            .collect())
    }

    /// Mean accuracy on a labelled set.
    pub fn score(&self, x: &Matrix, y: &[f64]) -> Result<f64> {
        let preds = self.predict(x)?;
        Ok(crate::metrics::accuracy(&preds, y))
    }
}

/// Each row's non-zero `(column, value)` pairs, in column order.
struct NonZeros {
    entries: Vec<(usize, f64)>,
    /// Row `i` is `entries[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
}

impl NonZeros {
    fn of(x: &Matrix) -> NonZeros {
        let mut entries = Vec::new();
        let mut starts = Vec::with_capacity(x.nrows() + 1);
        starts.push(0);
        for i in 0..x.nrows() {
            entries.extend(
                x.row(i)
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(_, v)| v != 0.0),
            );
            starts.push(entries.len());
        }
        NonZeros { entries, starts }
    }

    fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.entries[self.starts[i]..self.starts[i + 1]]
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Matrix, Vec<f64>) {
        // XOR with jitter: not linearly separable, needs the hidden layer.
        let mut c0 = Vec::new();
        let mut c1 = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let a = (i / 2) % 2;
            let b = i % 2;
            let j = ((i * 31 % 17) as f64 / 17.0 - 0.5) * 0.2;
            c0.push(a as f64 + j);
            c1.push(b as f64 - j);
            y.push(((a ^ b) == 1) as i64 as f64);
        }
        (Matrix::from_columns(&[c0, c1]).unwrap(), y)
    }

    /// The dense per-unit model the non-zero kernel must reproduce bit for
    /// bit: unit-major `w1` (`hidden × features`), every input multiplied.
    struct Reference {
        w1: Vec<f64>,
        b1: Vec<f64>,
        w2: Vec<f64>,
        b2: f64,
    }

    fn reference_fit(m: &MlpClassifier, x: &Matrix, y: &[f64]) -> Reference {
        let d = x.ncols();
        let mut rng = Prng::from_stream(m.seed, STREAM_MLP);
        let scale = (2.0 / d.max(1) as f64).sqrt();
        let w1 = (0..m.hidden * d)
            .map(|_| rng.range_f64(-scale, scale))
            .collect();
        let scale2 = (2.0 / m.hidden as f64).sqrt();
        let w2 = (0..m.hidden)
            .map(|_| rng.range_f64(-scale2, scale2))
            .collect();
        let mut r = Reference {
            w1,
            b1: vec![0.0; m.hidden],
            w2,
            b2: 0.0,
        };
        let mut order: Vec<usize> = (0..x.nrows()).collect();
        let mut h = vec![0.0; m.hidden];
        let mut hp = vec![0.0; m.hidden];
        for _ in 0..m.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let row = x.row(i);
                for (j, bj) in r.b1.iter().enumerate() {
                    let wj = &r.w1[j * d..(j + 1) * d];
                    let z: f64 = wj.iter().zip(row).map(|(w, x)| w * x).sum::<f64>() + bj;
                    h[j] = z.max(0.0);
                    hp[j] = (z > 0.0) as i64 as f64;
                }
                let z2: f64 = r.w2.iter().zip(&h).map(|(w, a)| w * a).sum::<f64>() + r.b2;
                let p = sigmoid(z2);
                let dz2 = p - y[i];
                for (j, ((w2j, hj), hpj)) in r.w2.iter_mut().zip(&h).zip(&hp).enumerate() {
                    let dh = *w2j * dz2 * hpj;
                    *w2j -= m.learning_rate * dz2 * hj;
                    if dh != 0.0 {
                        for (w, &xi) in r.w1[j * d..(j + 1) * d].iter_mut().zip(row) {
                            *w -= m.learning_rate * dh * xi;
                        }
                        r.b1[j] -= m.learning_rate * dh;
                    }
                }
                r.b2 -= m.learning_rate * dz2;
            }
        }
        r
    }

    fn reference_predict(r: &Reference, x: &Matrix) -> Vec<f64> {
        let d = x.ncols();
        (0..x.nrows())
            .map(|i| {
                let row = x.row(i);
                let z2: f64 =
                    r.b1.iter()
                        .zip(&r.w2)
                        .enumerate()
                        .map(|(j, (bj, w2j))| {
                            let wj = &r.w1[j * d..(j + 1) * d];
                            let z: f64 = wj.iter().zip(row).map(|(w, x)| w * x).sum::<f64>() + bj;
                            w2j * z.max(0.0)
                        })
                        .sum::<f64>()
                        + r.b2;
                sigmoid(z2)
            })
            .collect()
    }

    /// A design matrix shaped like the pipelines': two one-hot blocks, an
    /// all-zero column and two numeric columns with negatives, plus one
    /// all-zero row. Labels depend on the features, with noise.
    fn sparse_design(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        // Columns 0..4 and 4..7 are the one-hot blocks, 7 stays zero.
        const D: usize = 4 + 3 + 1 + 2;
        let mut rng = Prng::new(seed);
        let mut data = vec![0.0; n * D];
        let mut y = Vec::with_capacity(n);
        for (i, row) in data.chunks_mut(D).enumerate() {
            let a = rng.below(4);
            let b = rng.below(3);
            let u = rng.range_f64(-2.0, 2.0);
            let v = rng.range_f64(-1.5, 0.5);
            if i != 7 {
                row[a] = 1.0;
                row[4 + b] = 1.0;
                row[8] = u;
                row[9] = v;
            }
            let signal = (a % 2) as f64 - 0.5 + 0.8 * u * v;
            y.push((signal + rng.range_f64(-0.5, 0.5) > 0.0) as i64 as f64);
        }
        (Matrix::new(n, D, data).unwrap(), y)
    }

    #[test]
    fn non_zero_kernel_matches_the_dense_reference_bit_for_bit() {
        let (x, y) = sparse_design(150, 21);
        assert!((0..x.nrows()).any(|i| x.row(i).iter().all(|&v| v == 0.0)));
        assert!((0..x.ncols()).any(|k| (0..x.nrows()).all(|i| x.get(i, k) == 0.0)));
        let (probe, _) = sparse_design(60, 22);
        let bits = |ps: &[f64]| ps.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        for hidden in [1, 3, 16] {
            for seed in [0, 5] {
                let mut m = MlpClassifier::new(hidden).with_seed(seed);
                m.epochs = 8;
                let r = reference_fit(&m, &x, &y);
                m.fit(&x, &y).unwrap();
                let d = x.ncols();
                let transposed: Vec<f64> = (0..d)
                    .flat_map(|k| (0..hidden).map(move |j| (j, k)))
                    .map(|(j, k)| r.w1[j * d + k])
                    .collect();
                assert_eq!(bits(&m.w1), bits(&transposed), "w1, hidden {hidden}");
                assert_eq!(bits(&m.b1), bits(&r.b1), "b1, hidden {hidden}");
                assert_eq!(bits(&m.w2), bits(&r.w2), "w2, hidden {hidden}");
                assert_eq!(m.b2.to_bits(), r.b2.to_bits(), "b2, hidden {hidden}");
                for set in [&x, &probe] {
                    assert_eq!(
                        bits(&m.predict_proba(set).unwrap()),
                        bits(&reference_predict(&r, set)),
                        "probabilities, hidden {hidden} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data();
        let mut m = MlpClassifier::new(16);
        m.epochs = 200;
        m.fit(&x, &y).unwrap();
        assert!(
            m.score(&x, &y).unwrap() > 0.9,
            "{}",
            m.score(&x, &y).unwrap()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = xor_data();
        let mut a = MlpClassifier::new(8).with_seed(3);
        let mut b = MlpClassifier::new(8).with_seed(3);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn seed_changes_results() {
        let (x, y) = xor_data();
        let mut a = MlpClassifier::new(8).with_seed(1);
        let mut b = MlpClassifier::new(8).with_seed(2);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_ne!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn misuse_errors() {
        let m = MlpClassifier::new(4);
        assert!(m.predict(&Matrix::zeros(1, 1)).is_err());
        let mut m = MlpClassifier::new(0);
        assert!(m.fit(&Matrix::zeros(1, 1), &[0.0]).is_err());
    }
}
