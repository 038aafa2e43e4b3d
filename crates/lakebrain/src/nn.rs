//! A small fully-connected neural network with manual backpropagation.
//!
//! This is the policy/value network substrate for the DQN agent: dense
//! layers, ReLU activations, mean-squared-error loss on selected outputs,
//! and SGD with gradient clipping. Everything is `f64` and deterministic
//! given the seed.

#![allow(clippy::needless_range_loop)] // output indices address several parallel buffers

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One dense layer: `y = W x + b`.
#[derive(Debug, Clone)]
struct Dense {
    w: Vec<f64>, // rows = out, cols = in
    b: Vec<f64>,
    n_in: usize,
    n_out: usize,
}

impl Dense {
    fn new(n_in: usize, n_out: usize, rng: &mut StdRng) -> Self {
        // He initialization for ReLU nets
        let scale = (2.0 / n_in as f64).sqrt();
        let w = (0..n_in * n_out)
            .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        Dense { w, b: vec![0.0; n_out], n_in, n_out }
    }

    fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut y = self.b.clone();
        for o in 0..self.n_out {
            let row = &self.w[o * self.n_in..(o + 1) * self.n_in];
            y[o] += row.iter().zip(x).map(|(w, x)| w * x).sum::<f64>();
        }
        y
    }
}

/// A multi-layer perceptron with ReLU hidden activations and a linear
/// output layer.
#[derive(Debug, Clone)]
pub(crate) struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Build an MLP with the given layer sizes, e.g. `&[8, 32, 32, 2]`.
    pub(crate) fn new(sizes: &[usize], seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = sizes
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], &mut rng))
            .collect();
        Mlp { layers }
    }

    /// Input width.
    pub(crate) fn input_size(&self) -> usize {
        self.layers.first().unwrap().n_in
    }

    /// Output width.
    pub(crate) fn output_size(&self) -> usize {
        self.layers.last().unwrap().n_out
    }

    /// Forward pass.
    pub(crate) fn forward(&self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.input_size());
        let mut a = x.to_vec();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            a = layer.forward(&a);
            if i != last {
                for v in &mut a {
                    *v = v.max(0.0);
                }
            }
        }
        a
    }

    /// One SGD step on a batch of `(input, target_output_index, target)`
    /// triples: only the selected output unit receives an MSE gradient
    /// (the Q-learning update shape). Returns the mean squared error.
    pub(crate) fn train_selected(&mut self, batch: &[(Vec<f64>, usize, f64)], lr: f64) -> f64 {
        if batch.is_empty() {
            return 0.0;
        }
        let mut grads_w: Vec<Vec<f64>> =
            self.layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut grads_b: Vec<Vec<f64>> =
            self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        let mut total_loss = 0.0;
        for (x, sel, target) in batch {
            // forward with cached activations
            let mut activations: Vec<Vec<f64>> = vec![x.clone()];
            let last = self.layers.len() - 1;
            for (i, layer) in self.layers.iter().enumerate() {
                let mut a = layer.forward(activations.last().unwrap());
                if i != last {
                    for v in &mut a {
                        *v = v.max(0.0);
                    }
                }
                activations.push(a);
            }
            let out = activations.last().unwrap();
            let err = out[*sel] - target;
            total_loss += err * err;
            // backward
            let mut delta = vec![0.0; out.len()];
            delta[*sel] = 2.0 * err / batch.len() as f64;
            for (i, layer) in self.layers.iter().enumerate().rev() {
                let input = &activations[i];
                // grads for this layer
                for o in 0..layer.n_out {
                    if delta[o] == 0.0 {
                        continue;
                    }
                    grads_b[i][o] += delta[o];
                    let row = &mut grads_w[i][o * layer.n_in..(o + 1) * layer.n_in];
                    for (g, x) in row.iter_mut().zip(input) {
                        *g += delta[o] * x;
                    }
                }
                if i == 0 {
                    break;
                }
                // propagate delta through W and the ReLU of layer i-1
                let mut prev = vec![0.0; layer.n_in];
                for o in 0..layer.n_out {
                    if delta[o] == 0.0 {
                        continue;
                    }
                    let row = &layer.w[o * layer.n_in..(o + 1) * layer.n_in];
                    for (p, w) in prev.iter_mut().zip(row) {
                        *p += delta[o] * w;
                    }
                }
                for (p, a) in prev.iter_mut().zip(&activations[i]) {
                    if *a <= 0.0 {
                        *p = 0.0;
                    }
                }
                delta = prev;
            }
        }
        // apply clipped SGD
        for (layer, (gw, gb)) in self.layers.iter_mut().zip(grads_w.iter().zip(&grads_b)) {
            for (w, g) in layer.w.iter_mut().zip(gw) {
                *w -= lr * g.clamp(-1.0, 1.0);
            }
            for (b, g) in layer.b.iter_mut().zip(gb) {
                *b -= lr * g.clamp(-1.0, 1.0);
            }
        }
        total_loss / batch.len() as f64
    }

    /// Copy the weights of `other` into `self` (target-network sync).
    pub(crate) fn copy_from(&mut self, other: &Mlp) {
        self.layers = other.layers.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes_are_consistent() {
        let net = Mlp::new(&[4, 8, 2], 1);
        assert_eq!(net.input_size(), 4);
        assert_eq!(net.output_size(), 2);
        assert_eq!(net.forward(&[0.1, 0.2, 0.3, 0.4]).len(), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Mlp::new(&[3, 5, 1], 7);
        let b = Mlp::new(&[3, 5, 1], 7);
        assert_eq!(a.forward(&[1.0, 2.0, 3.0]), b.forward(&[1.0, 2.0, 3.0]));
        let c = Mlp::new(&[3, 5, 1], 8);
        assert_ne!(a.forward(&[1.0, 2.0, 3.0]), c.forward(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn learns_a_simple_function() {
        // Fit y0 = x0 + x1, y1 = x0 - x1 on random inputs.
        let mut net = Mlp::new(&[2, 16, 16, 2], 3);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..3000 {
            let x0: f64 = rng.gen_range(-1.0..1.0);
            let x1: f64 = rng.gen_range(-1.0..1.0);
            let batch = vec![
                (vec![x0, x1], 0usize, x0 + x1),
                (vec![x0, x1], 1usize, x0 - x1),
            ];
            net.train_selected(&batch, 0.02);
        }
        let y = net.forward(&[0.3, 0.2]);
        assert!((y[0] - 0.5).abs() < 0.1, "sum head got {}", y[0]);
        assert!((y[1] - 0.1).abs() < 0.1, "diff head got {}", y[1]);
    }

    #[test]
    fn selected_training_leaves_other_head_loss_defined() {
        let mut net = Mlp::new(&[2, 8, 2], 9);
        let before = net.forward(&[1.0, -1.0]);
        let loss = net.train_selected(&[(vec![1.0, -1.0], 0, before[0] + 1.0)], 0.1);
        assert!(loss > 0.0);
        let after = net.forward(&[1.0, -1.0]);
        assert!((after[0] - before[0]).abs() > 1e-6, "trained head must move");
    }

    #[test]
    fn copy_from_syncs_outputs() {
        let mut a = Mlp::new(&[2, 4, 1], 1);
        let b = Mlp::new(&[2, 4, 1], 2);
        assert_ne!(a.forward(&[0.5, 0.5]), b.forward(&[0.5, 0.5]));
        a.copy_from(&b);
        assert_eq!(a.forward(&[0.5, 0.5]), b.forward(&[0.5, 0.5]));
    }
}
