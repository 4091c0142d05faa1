//! Logistic regression (the compas/adult-simple classifier).
//!
//! sklearn's default `LogisticRegression()` minimises
//! `Σᵢ logloss(yᵢ, w·xᵢ + b) + ½‖w‖²/C` with `C = 1` and the intercept `b`
//! unpenalized. The objective is strictly convex in `w`, so every converged
//! solver returns the same model: no seed, no dependence on row order. This
//! one takes full-batch Newton steps (a Cholesky solve of the `(d+1)²`
//! Hessian) with a backtracking line search, and stops on sklearn's own
//! criterion: the mean-scaled gradient's max-norm is at most `tol = 1e-4`,
//! or `max_iter = 100` iterations have run.

use crate::error::{Result, SkError};
use crate::matrix::Matrix;

/// Inverse regularization strength (sklearn's `C`).
const C: f64 = 1.0;
/// Stop once `max |∇f| / n` is at most this (sklearn's `tol`).
const TOL: f64 = 1e-4;
/// Newton iterations before giving up (sklearn's `max_iter`).
const MAX_ITER: usize = 100;
/// Armijo sufficient-decrease constant of the line search.
const ARMIJO: f64 = 1e-4;
/// Step halvings before the line search gives up.
const MAX_HALVINGS: usize = 60;

/// Binary logistic regression fitted to sklearn's L2-regularized objective.
#[derive(Debug, Clone, Default)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
    fitted: bool,
}

impl LogisticRegression {
    /// sklearn's defaults: `C = 1`, unpenalized intercept, `tol = 1e-4`,
    /// `max_iter = 100`.
    pub fn new() -> LogisticRegression {
        LogisticRegression::default()
    }

    /// Learned weights (after fit).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Train on features `x` and 0/1 labels `y`.
    pub fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        if x.nrows() != y.len() {
            return Err(SkError::Shape(format!(
                "{} rows vs {} labels",
                x.nrows(),
                y.len()
            )));
        }
        if x.nrows() == 0 {
            return Err(SkError::Invalid("empty training set".into()));
        }
        let (n, d) = (x.nrows(), x.ncols());
        // Unknowns are `[w; b]`: the intercept is entry `d`.
        let m = d + 1;
        let mut w = vec![0.0; d];
        let mut b = 0.0;
        let mut z = vec![0.0; n];
        let mut grad = vec![0.0; m];
        let mut hess = vec![0.0; m * m];
        let mut step = vec![0.0; m];
        let mut dz = vec![0.0; n];
        let mut loss = objective_along(&z, &dz, 0.0, y, &w, &w);
        for _ in 0..MAX_ITER {
            gradient_and_hessian(x, y, &z, &w, &mut grad, &mut hess);
            if grad.iter().fold(0.0f64, |a, g| a.max(g.abs())) / n as f64 <= TOL {
                break;
            }
            // Newton direction: H · step = −grad.
            for (s, g) in step.iter_mut().zip(&grad) {
                *s = -g;
            }
            if !cholesky_solve(&mut hess, m, &mut step) {
                break;
            }
            for (i, dzi) in dz.iter_mut().enumerate() {
                *dzi = dot(&step[..d], x.row(i)) + step[d];
            }
            let slope = dot(&grad, &step);
            let Some((alpha, trial)) = line_search(&z, &dz, y, &w, &step[..d], loss, slope) else {
                break;
            };
            for (wj, sj) in w.iter_mut().zip(&step) {
                *wj += alpha * sj;
            }
            b += alpha * step[d];
            for (zi, dzi) in z.iter_mut().zip(&dz) {
                *zi += alpha * dzi;
            }
            loss = trial;
        }
        self.weights = w;
        self.bias = b;
        self.fitted = true;
        Ok(())
    }

    /// P(class 1) per row.
    pub fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        if !self.fitted {
            return Err(SkError::NotFitted("LogisticRegression"));
        }
        if x.ncols() != self.weights.len() {
            return Err(SkError::Shape(format!(
                "model has {} features, input has {}",
                self.weights.len(),
                x.ncols()
            )));
        }
        Ok((0..x.nrows())
            .map(|i| sigmoid(dot(&self.weights, x.row(i)) + self.bias))
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

    /// Mean accuracy on a labelled set (sklearn `score`).
    pub fn score(&self, x: &Matrix, y: &[f64]) -> Result<f64> {
        let preds = self.predict(x)?;
        Ok(crate::metrics::accuracy(&preds, y))
    }
}

/// One pass over the rows at decision values `z`: the objective's gradient
/// `Xᵀ(p − y) + w/C` and the lower triangle of its Hessian `XᵀSX + I/C`,
/// with the intercept as the last unknown (unpenalized).
fn gradient_and_hessian(
    x: &Matrix,
    y: &[f64],
    z: &[f64],
    w: &[f64],
    grad: &mut [f64],
    hess: &mut [f64],
) {
    let (d, m) = (w.len(), grad.len());
    grad.fill(0.0);
    hess.fill(0.0);
    for (i, (&zi, &yi)) in z.iter().zip(y).enumerate() {
        let p = sigmoid(zi);
        let (r, s) = (p - yi, p * (1.0 - p));
        let row = x.row(i);
        for (j, &xj) in row.iter().enumerate() {
            grad[j] += r * xj;
            let sx = s * xj;
            for (h, &xk) in hess[j * m..=j * m + j].iter_mut().zip(row) {
                *h += sx * xk;
            }
        }
        grad[d] += r;
        let last = &mut hess[d * m..];
        for (h, &xk) in last.iter_mut().zip(row) {
            *h += s * xk;
        }
        last[d] += s;
    }
    for (j, wj) in w.iter().enumerate() {
        grad[j] += wj / C;
        hess[j * m + j] += 1.0 / C;
    }
}

/// Backtracking from `loss` along the Newton direction, a descent
/// direction because the factored Hessian is positive definite (`slope`,
/// the gradient times the step, is negative): the first
/// `alpha = 1, ½, ¼, …` that meets the Armijo condition, with the
/// objective there.
fn line_search(
    z: &[f64],
    dz: &[f64],
    y: &[f64],
    w: &[f64],
    dw: &[f64],
    loss: f64,
    slope: f64,
) -> Option<(f64, f64)> {
    let mut alpha = 1.0;
    for _ in 0..MAX_HALVINGS {
        let trial = objective_along(z, dz, alpha, y, w, dw);
        if trial <= loss + ARMIJO * alpha * slope {
            return Some((alpha, trial));
        }
        alpha *= 0.5;
    }
    None
}

/// The objective at decision values `z + alpha · dz` and weights
/// `w + alpha · dw`.
fn objective_along(z: &[f64], dz: &[f64], alpha: f64, y: &[f64], w: &[f64], dw: &[f64]) -> f64 {
    let data: f64 = z
        .iter()
        .zip(dz)
        .zip(y)
        .map(|((zi, dzi), &yi)| log_loss(zi + alpha * dzi, yi))
        .sum();
    let norm: f64 = w
        .iter()
        .zip(dw)
        .map(|(wj, dj)| (wj + alpha * dj).powi(2))
        .sum();
    data + 0.5 * norm / C
}

/// `−y ln σ(z) − (1 − y) ln(1 − σ(z))`, stable for any `z`.
fn log_loss(z: f64, y: f64) -> f64 {
    z.max(0.0) + (-z.abs()).exp().ln_1p() - y * z
}

/// Solve `A · v = rhs` in place for a symmetric positive-definite `A` whose
/// lower triangle (row-major, `m × m`) is filled. Returns `false` if `A` is
/// not numerically positive definite.
fn cholesky_solve(a: &mut [f64], m: usize, rhs: &mut [f64]) -> bool {
    // Factor A = L Lᵀ, L overwriting the lower triangle.
    for j in 0..m {
        let mut diag = a[j * m + j];
        for k in 0..j {
            diag -= a[j * m + k] * a[j * m + k];
        }
        if diag.is_nan() || diag <= 0.0 {
            return false;
        }
        let diag = diag.sqrt();
        a[j * m + j] = diag;
        for i in j + 1..m {
            let mut v = a[i * m + j];
            for k in 0..j {
                v -= a[i * m + k] * a[j * m + k];
            }
            a[i * m + j] = v / diag;
        }
    }
    // Forward (L u = rhs), then backward (Lᵀ v = u).
    for i in 0..m {
        let mut v = rhs[i];
        for k in 0..i {
            v -= a[i * m + k] * rhs[k];
        }
        rhs[i] = v / a[i * m + i];
    }
    for i in (0..m).rev() {
        let mut v = rhs[i];
        for k in i + 1..m {
            v -= a[k * m + i] * rhs[k];
        }
        rhs[i] = v / a[i * m + i];
    }
    true
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use etypes::Prng;

    fn linearly_separable() -> (Matrix, Vec<f64>) {
        // y = 1 iff x0 > 0.
        let mut cols: Vec<Vec<f64>> = vec![Vec::new(), Vec::new()];
        let mut ys = Vec::new();
        for i in 0..100 {
            let x0 = if i % 2 == 0 { 1.0 } else { -1.0 };
            let jitter = (i as f64 * 0.37).sin() * 0.3;
            cols[0].push(x0 + jitter * 0.1);
            cols[1].push(jitter);
            ys.push((x0 > 0.0) as i64 as f64);
        }
        (Matrix::from_columns(&cols).unwrap(), ys)
    }

    /// Three features and noisy labels: P(y = 1) = σ(2x₀ − x₁ + 0.5).
    fn overlapping(n: usize) -> (Matrix, Vec<f64>) {
        let mut rng = Prng::new(5);
        let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
        let mut ys = Vec::new();
        for _ in 0..n {
            let (a, b, c) = (
                rng.range_f64(-2.0, 2.0),
                rng.range_f64(-2.0, 2.0),
                rng.range_f64(0.0, 10.0),
            );
            cols[0].push(a);
            cols[1].push(b);
            cols[2].push(c);
            ys.push(rng.chance(sigmoid(2.0 * a - b + 0.5)) as i64 as f64);
        }
        (Matrix::from_columns(&cols).unwrap(), ys)
    }

    fn with_column(x: &Matrix, value: f64) -> Matrix {
        Matrix::hcat(&[
            x.clone(),
            Matrix::new(x.nrows(), 1, vec![value; x.nrows()]).unwrap(),
        ])
        .unwrap()
    }

    /// Fit, then check sklearn's first-order condition independently: the
    /// mean-scaled gradient of the objective has max-norm at most `tol`.
    fn fit_optimal(x: &Matrix, y: &[f64]) -> LogisticRegression {
        let mut m = LogisticRegression::new();
        m.fit(x, y).unwrap();
        let n = x.nrows() as f64;
        let mut grad: Vec<f64> = m.weights.iter().map(|w| w / C).collect();
        let mut grad_b = 0.0;
        for (i, (p, yi)) in m.predict_proba(x).unwrap().into_iter().zip(y).enumerate() {
            assert!(p.is_finite());
            for (j, g) in grad.iter_mut().enumerate() {
                *g += (p - yi) * x.get(i, j);
            }
            grad_b += p - yi;
        }
        let worst = grad
            .iter()
            .chain([&grad_b])
            .fold(0.0f64, |a, g| a.max(g.abs()))
            / n;
        assert!(m.bias.is_finite() && m.weights.iter().all(|w| w.is_finite()));
        assert!(worst <= TOL, "mean-scaled gradient {worst} > {TOL}");
        m
    }

    #[test]
    fn learns_linearly_separable_data() {
        let (x, y) = linearly_separable();
        let mut m = LogisticRegression::new();
        m.fit(&x, &y).unwrap();
        assert!(m.score(&x, &y).unwrap() > 0.95);
    }

    #[test]
    fn optimal_on_separable_data() {
        let (x, y) = linearly_separable();
        fit_optimal(&x, &y);
    }

    #[test]
    fn optimal_on_non_separable_data() {
        let (x, y) = overlapping(1500);
        let m = fit_optimal(&x, &y);
        // Near the generating weights, shrunk a little by the L2 term.
        assert!(m.weights[0] > 1.0 && m.weights[1] < -0.5, "{:?}", m.weights);
    }

    #[test]
    fn optimal_with_all_labels_in_one_class() {
        let (x, _) = overlapping(300);
        for label in [0.0, 1.0] {
            let m = fit_optimal(&x, &vec![label; x.nrows()]);
            // The unpenalized intercept grows until the gradient meets tol.
            assert!(
                m.bias.abs() > 5.0 && (m.bias > 0.0) == (label == 1.0),
                "{}",
                m.bias
            );
            assert_eq!(m.predict(&x).unwrap(), vec![label; x.nrows()]);
        }
    }

    #[test]
    fn optimal_with_an_all_zero_column() {
        let (x, y) = overlapping(400);
        let m = fit_optimal(&with_column(&x, 0.0), &y);
        assert_eq!(m.weights[3], 0.0);
    }

    #[test]
    fn optimal_with_a_constant_column() {
        // Collinear with the intercept: only the ridge keeps the solve regular.
        let (x, y) = overlapping(400);
        fit_optimal(&with_column(&x, 3.0), &y);
    }

    #[test]
    fn row_order_does_not_change_the_model() {
        let (x, y) = overlapping(600);
        let mut order: Vec<usize> = (0..x.nrows()).collect();
        Prng::new(9).shuffle(&mut order);
        let data: Vec<f64> = order.iter().flat_map(|&i| x.row(i).to_vec()).collect();
        let xp = Matrix::new(x.nrows(), x.ncols(), data).unwrap();
        let yp: Vec<f64> = order.iter().map(|&i| y[i]).collect();
        let (mut a, mut b) = (LogisticRegression::new(), LogisticRegression::new());
        a.fit(&x, &y).unwrap();
        b.fit(&xp, &yp).unwrap();
        for (wa, wb) in a.weights().iter().zip(b.weights()) {
            assert!(
                (wa - wb).abs() <= 1e-9,
                "{:?} vs {:?}",
                a.weights(),
                b.weights()
            );
        }
    }

    #[test]
    fn errors_on_misuse() {
        let m = LogisticRegression::new();
        assert!(m.predict(&Matrix::zeros(1, 1)).is_err());
        let mut m = LogisticRegression::new();
        assert!(m.fit(&Matrix::zeros(2, 1), &[1.0]).is_err());
        m.fit(&Matrix::zeros(2, 1), &[0.0, 1.0]).unwrap();
        assert!(m.predict(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let (x, y) = linearly_separable();
        let mut m = LogisticRegression::new();
        m.fit(&x, &y).unwrap();
        for p in m.predict_proba(&x).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
