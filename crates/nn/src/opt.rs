//! First-order optimizers.
//!
//! Optimizers own per-parameter state (momentum / Adam moments) keyed by
//! the stable visit order of [`Sequential::visit_params`], so one optimizer
//! must stay paired with one network for its lifetime.

use crate::net::Sequential;
use mrsch_linalg::Matrix;

/// A gradient-descent style optimizer.
pub trait Optimizer {
    /// Apply one update step using the gradients currently accumulated in
    /// `net`, then leave the gradients untouched (callers typically call
    /// `net.zero_grad()` before the next backward pass).
    fn step(&mut self, net: &mut Sequential);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replace the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with optional classical momentum.
#[derive(Clone, Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Matrix>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "Sgd: learning rate must be positive");
        Self { lr, momentum: 0.0, velocity: Vec::new() }
    }

    /// Enable classical momentum (`v = β v + g; p -= lr v`).
    pub fn momentum(mut self, beta: f32) -> Self {
        assert!((0.0..1.0).contains(&beta), "Sgd: momentum must be in [0,1)");
        self.momentum = beta;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, net: &mut Sequential) {
        let lr = self.lr;
        let beta = self.momentum;
        let velocity = &mut self.velocity;
        let mut idx = 0usize;
        net.visit_params(&mut |p, g| {
            if beta == 0.0 {
                p.axpy(-lr, g);
            } else {
                if velocity.len() <= idx {
                    velocity.push(Matrix::zeros(g.rows(), g.cols()));
                }
                let v = &mut velocity[idx];
                v.scale_assign(beta);
                v.add_assign(g);
                p.axpy(-lr, v);
            }
            idx += 1;
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba 2015) with bias correction.
#[derive(Clone, Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with default `β1 = 0.9`, `β2 = 0.999`, `ε = 1e-8`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "Adam: learning rate must be positive");
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Apply one Adam step over an arbitrary parameter collection.
    ///
    /// `visit` must call the provided callback once per `(param, grad)`
    /// pair, in an order that is stable across calls (the optimizer's
    /// moment buffers are keyed by visit order). This is how multi-subnet
    /// models (e.g. the DFP network) share one optimizer.
    pub fn step_visitor(
        &mut self,
        mut visit: impl FnMut(&mut dyn FnMut(&mut Matrix, &mut Matrix)),
    ) {
        self.t += 1;
        let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let m_store = &mut self.m;
        let v_store = &mut self.v;
        let mut idx = 0usize;
        visit(&mut |p, g| {
            if m_store.len() <= idx {
                m_store.push(Matrix::zeros(g.rows(), g.cols()));
                v_store.push(Matrix::zeros(g.rows(), g.cols()));
            }
            let m = &mut m_store[idx];
            let v = &mut v_store[idx];
            let (ps, gs) = (p.as_mut_slice(), g.as_slice());
            let (ms, vs) = (m.as_mut_slice(), v.as_mut_slice());
            for i in 0..ps.len() {
                ms[i] = b1 * ms[i] + (1.0 - b1) * gs[i];
                vs[i] = b2 * vs[i] + (1.0 - b2) * gs[i] * gs[i];
                let m_hat = ms[i] / bc1;
                let v_hat = vs[i] / bc2;
                ps[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            idx += 1;
        });
    }
}

impl Optimizer for Adam {
    fn step(&mut self, net: &mut Sequential) {
        self.step_visitor(|f| net.visit_params(&mut |p, g| f(p, g)));
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Exponential learning-rate decay helper: `lr_t = lr_0 * rate^t`.
///
/// The paper decays its ε-greedy exploration at 0.995 per episode; the
/// same schedule shape is offered for learning rates.
#[derive(Clone, Copy, Debug)]
pub struct ExpDecay {
    initial: f32,
    rate: f32,
    floor: f32,
}

impl ExpDecay {
    /// Create a schedule starting at `initial`, multiplying by `rate` each
    /// step, never dropping below `floor`.
    pub fn new(initial: f32, rate: f32, floor: f32) -> Self {
        assert!(initial > 0.0 && rate > 0.0 && rate <= 1.0 && floor >= 0.0);
        Self { initial, rate, floor }
    }

    /// Value at step `t`.
    pub fn at(&self, t: u64) -> f32 {
        (self.initial * self.rate.powi(t.min(i32::MAX as u64) as i32)).max(self.floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Activation;
    use crate::loss::mse;
    use mrsch_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quadratic_net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new().dense(1, 1, &mut rng)
    }

    fn train(net: &mut Sequential, opt: &mut dyn Optimizer, iters: usize) -> f32 {
        train_scheduled(net, opt, iters, None)
    }

    fn train_scheduled(
        net: &mut Sequential,
        opt: &mut dyn Optimizer,
        iters: usize,
        schedule: Option<ExpDecay>,
    ) -> f32 {
        let x = Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
        let y = Matrix::from_vec(3, 1, vec![2.0, 4.0, 6.0]);
        let mut last = f32::MAX;
        for t in 0..iters {
            if let Some(s) = schedule {
                opt.set_learning_rate(s.at(t as u64));
            }
            let pred = net.forward(&x);
            let (l, g) = mse(&pred, &y);
            last = l;
            net.zero_grad();
            net.backward(&g);
            opt.step(net);
        }
        last
    }

    #[test]
    fn sgd_converges_on_linear_problem() {
        let mut net = quadratic_net(1);
        let mut opt = Sgd::new(0.02);
        assert!(train(&mut net, &mut opt, 2500) < 1e-4);
    }

    #[test]
    fn sgd_momentum_converges_faster_than_plain() {
        let mut a = quadratic_net(2);
        let mut b = a.clone();
        let mut plain = Sgd::new(0.01);
        let mut with_mom = Sgd::new(0.01).momentum(0.9);
        let loss_plain = train(&mut a, &mut plain, 60);
        let loss_mom = train(&mut b, &mut with_mom, 60);
        assert!(
            loss_mom < loss_plain,
            "momentum {loss_mom} should beat plain {loss_plain} at equal budget"
        );
    }

    #[test]
    fn adam_converges_on_linear_problem() {
        // Adam's constant-magnitude steps (~lr until v decays) make the
        // tail of this descent slow: at a fixed lr the reference needs
        // ~2000 iterations to pass 1e-4. The ExpDecay schedule the DFP
        // trainer wires by default damps the tail, cutting the budget to
        // 500 (this stream lands near 4e-6 — ample margin).
        let mut net = quadratic_net(3);
        let mut opt = Adam::new(0.1);
        let schedule = ExpDecay::new(0.1, 0.999, 1e-3);
        assert!(train_scheduled(&mut net, &mut opt, 500, Some(schedule)) < 1e-4);
    }

    #[test]
    fn scheduled_adam_beats_the_old_constant_config_at_equal_budget() {
        // The pre-schedule test configuration (constant lr = 0.05) needs
        // ~2000 iterations for 1e-4; at the new 500-iteration budget it
        // is still orders of magnitude behind the scheduled run.
        let loss_old = {
            let mut net = quadratic_net(3);
            let mut opt = Adam::new(0.05);
            train(&mut net, &mut opt, 500)
        };
        let loss_sched = {
            let mut net = quadratic_net(3);
            let mut opt = Adam::new(0.1);
            train_scheduled(&mut net, &mut opt, 500, Some(ExpDecay::new(0.1, 0.999, 1e-3)))
        };
        assert!(loss_old > 1e-4, "old config misses the bar at 500: {loss_old}");
        assert!(
            loss_sched < loss_old / 10.0,
            "schedule should dominate: scheduled {loss_sched} vs old {loss_old}"
        );
    }

    #[test]
    fn adam_handles_nonconvex_net() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = Sequential::new()
            .dense(2, 8, &mut rng)
            .activation(Activation::Tanh)
            .dense(8, 1, &mut rng);
        let mut opt = Adam::new(0.02);
        let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let y = Matrix::from_vec(4, 1, vec![0., 1., 1., 0.]);
        let mut last = f32::MAX;
        for _ in 0..2000 {
            let pred = net.forward(&x);
            let (l, g) = mse(&pred, &y);
            last = l;
            net.zero_grad();
            net.backward(&g);
            opt.step(&mut net);
        }
        assert!(last < 5e-2, "XOR via Adam: {last}");
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
        opt.set_learning_rate(0.001);
        assert_eq!(opt.learning_rate(), 0.001);
    }

    #[test]
    fn exp_decay_schedule() {
        let s = ExpDecay::new(1.0, 0.995, 0.05);
        assert_eq!(s.at(0), 1.0);
        assert!((s.at(1) - 0.995).abs() < 1e-6);
        assert!(s.at(10_000) >= 0.05, "floor must hold");
        assert!(s.at(100) < s.at(10));
    }

    #[test]
    fn adam_step_counter_increments() {
        let mut net = quadratic_net(5);
        let mut opt = Adam::new(0.01);
        assert_eq!(opt.steps(), 0);
        train(&mut net, &mut opt, 3);
        assert_eq!(opt.steps(), 3);
    }
}
