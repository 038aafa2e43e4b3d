//! Deep Q-learning (the paper cites DQN \[44, 45\] as the policy network).
//!
//! Standard machinery: an online network and a periodically-synced target
//! network, an experience replay buffer, epsilon-greedy exploration with
//! decay, and the one-step TD target `r + γ max_a' Q_target(s', a')`.

use crate::nn::Mlp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One transition in the replay buffer.
#[derive(Debug, Clone)]
pub(crate) struct Transition {
    /// State features.
    pub(crate) state: Vec<f64>,
    /// Action taken (index).
    pub(crate) action: usize,
    /// Observed reward.
    pub(crate) reward: f64,
    /// Next state (`None` for terminal).
    pub(crate) next_state: Option<Vec<f64>>,
}

/// DQN hyperparameters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DqnConfig {
    /// Discount factor γ.
    pub(crate) gamma: f64,
    /// Learning rate.
    pub(crate) lr: f64,
    /// Initial exploration rate.
    pub(crate) epsilon_start: f64,
    /// Final exploration rate.
    pub(crate) epsilon_end: f64,
    /// Steps over which epsilon decays linearly.
    pub(crate) epsilon_decay_steps: u64,
    /// Replay buffer capacity.
    pub(crate) buffer_capacity: usize,
    /// Minibatch size.
    pub(crate) batch_size: usize,
    /// Target-network sync interval (train steps).
    pub(crate) target_sync: u64,
}

impl Default for DqnConfig {
    fn default() -> Self {
        DqnConfig {
            gamma: 0.95,
            lr: 0.005,
            epsilon_start: 1.0,
            epsilon_end: 0.05,
            epsilon_decay_steps: 3000,
            buffer_capacity: 10_000,
            batch_size: 32,
            target_sync: 100,
        }
    }
}

/// The DQN agent.
#[derive(Debug)]
pub struct DqnAgent {
    online: Mlp,
    target: Mlp,
    buffer: Vec<Transition>,
    buffer_pos: usize,
    config: DqnConfig,
    steps: u64,
    train_steps: u64,
    rng: StdRng,
}

impl DqnAgent {
    /// An agent over `state_dim` features choosing among `actions`.
    pub(crate) fn new(state_dim: usize, actions: usize, config: DqnConfig, seed: u64) -> Self {
        let online = Mlp::new(&[state_dim, 32, 32, actions], seed);
        let target = online.clone();
        DqnAgent {
            online,
            target,
            buffer: Vec::new(),
            buffer_pos: 0,
            config,
            steps: 0,
            train_steps: 0,
            rng: StdRng::seed_from_u64(seed ^ 0x9E37_79B9),
        }
    }

    /// Current exploration rate.
    pub(crate) fn epsilon(&self) -> f64 {
        let c = &self.config;
        let frac = (self.steps as f64 / c.epsilon_decay_steps as f64).min(1.0);
        c.epsilon_start + (c.epsilon_end - c.epsilon_start) * frac
    }

    /// Choose an action epsilon-greedily (training mode).
    pub(crate) fn act(&mut self, state: &[f64]) -> usize {
        self.steps += 1;
        if self.rng.gen::<f64>() < self.epsilon() {
            self.rng.gen_range(0..self.online.output_size())
        } else {
            self.best_action(state)
        }
    }

    /// Choose the greedy action (inference mode).
    pub(crate) fn best_action(&self, state: &[f64]) -> usize {
        let q = self.online.forward(state);
        q.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Store one transition.
    pub(crate) fn remember(&mut self, t: Transition) {
        if self.buffer.len() < self.config.buffer_capacity {
            self.buffer.push(t);
        } else {
            self.buffer[self.buffer_pos] = t;
            self.buffer_pos = (self.buffer_pos + 1) % self.config.buffer_capacity;
        }
    }

    /// One training step on a sampled minibatch; returns the TD loss, or
    /// `None` while the buffer is smaller than a batch.
    pub(crate) fn train_step(&mut self) -> Option<f64> {
        if self.buffer.len() < self.config.batch_size {
            return None;
        }
        let mut batch = Vec::with_capacity(self.config.batch_size);
        for _ in 0..self.config.batch_size {
            let t = &self.buffer[self.rng.gen_range(0..self.buffer.len())];
            let target = match &t.next_state {
                Some(ns) => {
                    let q_next = self.target.forward(ns);
                    let max_next = q_next.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    t.reward + self.config.gamma * max_next
                }
                None => t.reward,
            };
            batch.push((t.state.clone(), t.action, target));
        }
        let loss = self.online.train_selected(&batch, self.config.lr);
        self.train_steps += 1;
        if self.train_steps.is_multiple_of(self.config.target_sync) {
            self.target.copy_from(&self.online);
        }
        Some(loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_decays_to_floor() {
        let mut a = DqnAgent::new(2, 2, DqnConfig::default(), 1);
        assert!((a.epsilon() - 1.0).abs() < 1e-9);
        for _ in 0..5000 {
            a.act(&[0.0, 0.0]);
        }
        assert!((a.epsilon() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn buffer_is_a_ring() {
        let cfg = DqnConfig { buffer_capacity: 4, ..Default::default() };
        let mut a = DqnAgent::new(1, 2, cfg, 2);
        for i in 0..10 {
            a.remember(Transition {
                state: vec![i as f64],
                action: 0,
                reward: 0.0,
                next_state: None,
            });
        }
        assert_eq!(a.buffer.len(), 4);
    }

    #[test]
    fn no_training_until_batch_full() {
        let mut a = DqnAgent::new(1, 2, DqnConfig::default(), 3);
        assert!(a.train_step().is_none());
    }

    #[test]
    fn learns_a_two_armed_bandit() {
        // State is irrelevant; action 1 pays 1.0, action 0 pays 0.0.
        let cfg = DqnConfig {
            epsilon_decay_steps: 500,
            target_sync: 20,
            batch_size: 16,
            lr: 0.01,
            ..Default::default()
        };
        let mut a = DqnAgent::new(1, 2, cfg, 4);
        for _ in 0..1500 {
            let s = vec![0.5];
            let action = a.act(&s);
            let reward = if action == 1 { 1.0 } else { 0.0 };
            a.remember(Transition { state: s, action, reward, next_state: None });
            a.train_step();
        }
        assert_eq!(
            a.best_action(&[0.5]),
            1,
            "q-values {:?}",
            a.online.forward(&[0.5])
        );
    }

    #[test]
    fn learns_state_dependent_policy() {
        // Action must match the sign of the single state feature.
        let cfg = DqnConfig {
            epsilon_decay_steps: 1000,
            target_sync: 25,
            batch_size: 32,
            lr: 0.01,
            ..Default::default()
        };
        let mut a = DqnAgent::new(1, 2, cfg, 5);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..4000 {
            let x: f64 = rng.gen_range(-1.0..1.0);
            let s = vec![x];
            let action = a.act(&s);
            let correct = usize::from(x > 0.0);
            let reward = if action == correct { 1.0 } else { -1.0 };
            a.remember(Transition { state: s, action, reward, next_state: None });
            a.train_step();
        }
        assert_eq!(a.best_action(&[0.8]), 1);
        assert_eq!(a.best_action(&[-0.8]), 0);
    }
}
