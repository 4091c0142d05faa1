//! A small feed-forward neural network (the Keras-classifier substitute).
//!
//! The paper's healthcare and adult-complex pipelines train a Keras neural
//! network. For the end-to-end experiments (Fig. 8, Table 5) any comparable
//! trainable model suffices; this single-hidden-layer MLP with SGD backprop
//! reproduces the *shape* of the results — training dominates the healthcare
//! runtime, and accuracy varies run-to-run with the stochastic split/init.

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
    /// Hidden-layer weights, row-major `hidden × features`.
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
        let mut rng = Prng::from_stream(self.seed, STREAM_MLP);
        let scale = (2.0 / d.max(1) as f64).sqrt();
        self.w1 = (0..self.hidden * d)
            .map(|_| rng.range_f64(-scale, scale))
            .collect();
        self.features = d;
        self.b1 = vec![0.0; self.hidden];
        let scale2 = (2.0 / self.hidden as f64).sqrt();
        self.w2 = (0..self.hidden)
            .map(|_| rng.range_f64(-scale2, scale2))
            .collect();
        self.b2 = 0.0;

        let mut order: Vec<usize> = (0..x.nrows()).collect();
        let mut h = vec![0.0; self.hidden];
        let mut hp = vec![0.0; self.hidden]; // relu'(pre-activation)
        for _ in 0..self.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let row = x.row(i);
                // Forward.
                for (j, bj) in self.b1.iter().enumerate() {
                    let wj = &self.w1[j * d..(j + 1) * d];
                    let z: f64 = wj.iter().zip(row).map(|(w, x)| w * x).sum::<f64>() + bj;
                    h[j] = z.max(0.0);
                    hp[j] = (z > 0.0) as i64 as f64;
                }
                let z2: f64 = self.w2.iter().zip(&h).map(|(w, a)| w * a).sum::<f64>() + self.b2;
                let p = sigmoid(z2);
                // Backward (cross-entropy).
                let dz2 = p - y[i];
                for (j, ((w2j, hj), hpj)) in self.w2.iter_mut().zip(&h).zip(&hp).enumerate() {
                    let dh = *w2j * dz2 * hpj;
                    *w2j -= self.learning_rate * dz2 * hj;
                    if dh != 0.0 {
                        for (w, &xi) in self.w1[j * d..(j + 1) * d].iter_mut().zip(row) {
                            *w -= self.learning_rate * dh * xi;
                        }
                        self.b1[j] -= self.learning_rate * dh;
                    }
                }
                self.b2 -= self.learning_rate * dz2;
            }
        }
        self.fitted = true;
        Ok(())
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
        Ok((0..x.nrows())
            .map(|i| {
                let row = x.row(i);
                let z2: f64 = self
                    .b1
                    .iter()
                    .zip(&self.w2)
                    .enumerate()
                    .map(|(j, (bj, w2j))| {
                        let wj = &self.w1[j * d..(j + 1) * d];
                        let z: f64 = wj.iter().zip(row).map(|(w, x)| w * x).sum::<f64>() + bj;
                        w2j * z.max(0.0)
                    })
                    .sum::<f64>()
                    + self.b2;
                sigmoid(z2)
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
