//! `rnn_serving`: word-generation RNN forward pass.
//!
//! Mirrors FunctionBench's PyTorch RNN: a GRU cell stepped `seq_len` times
//! over a hidden state of width `hidden`, sampling the next "character" from
//! the output each step.

use super::{fold_f64, next_weight};
use faasrail_stats::rng::SplitMix64;

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Run a GRU for `seq_len` steps with hidden width `hidden`; returns a
/// checksum of the generated token sequence.
pub fn run(seq_len: u32, hidden: u32) -> u64 {
    let h = hidden as usize;
    assert!(h > 0, "hidden width must be positive");
    let mut rng = SplitMix64::new(0x6172 ^ ((seq_len as u64) << 32 | hidden as u64));

    // Three gates (update, reset, candidate), each h×h plus a small input
    // projection (input dim fixed at 8, like a character embedding).
    const IN: usize = 8;
    let wz: Vec<f32> = (0..h * h).map(|_| next_weight(&mut rng) * 0.2).collect();
    let wr: Vec<f32> = (0..h * h).map(|_| next_weight(&mut rng) * 0.2).collect();
    let wh: Vec<f32> = (0..h * h).map(|_| next_weight(&mut rng) * 0.2).collect();
    let uz: Vec<f32> = (0..h * IN).map(|_| next_weight(&mut rng) * 0.2).collect();
    let ur: Vec<f32> = (0..h * IN).map(|_| next_weight(&mut rng) * 0.2).collect();
    let uh: Vec<f32> = (0..h * IN).map(|_| next_weight(&mut rng) * 0.2).collect();

    let mut state = vec![0f32; h];
    let mut new_state = vec![0f32; h];
    let mut x = [0f32; IN];
    let mut acc = 0x6272_7565u64;

    for step in 0..seq_len {
        // Input embedding for this step (driven by the previous token).
        for (i, v) in x.iter_mut().enumerate() {
            *v = (((acc >> (i * 8)) & 0xFF) as f32 / 255.0) - 0.5;
        }
        for i in 0..h {
            let mut z = 0f32;
            let mut r = 0f32;
            for j in 0..h {
                z += wz[i * h + j] * state[j];
                r += wr[i * h + j] * state[j];
            }
            for j in 0..IN {
                z += uz[i * IN + j] * x[j];
                r += ur[i * IN + j] * x[j];
            }
            let z = sigmoid(z);
            let r = sigmoid(r);
            let mut cand = 0f32;
            for j in 0..h {
                cand += wh[i * h + j] * (r * state[j]);
            }
            for j in 0..IN {
                cand += uh[i * IN + j] * x[j];
            }
            let cand = cand.tanh();
            new_state[i] = (1.0 - z) * state[i] + z * cand;
        }
        std::mem::swap(&mut state, &mut new_state);
        // "Sample" a token: argmax over the first 32 hidden units.
        let tok = state
            .iter()
            .take(32)
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i as u64)
            .unwrap_or(0);
        acc = acc.rotate_left(5) ^ tok ^ step as u64;
    }
    for s in state.iter().take(16) {
        acc = fold_f64(acc, *s as f64);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(run(8, 16), run(8, 16));
    }

    #[test]
    fn sensitive_to_params() {
        assert_ne!(run(8, 16), run(9, 16));
        assert_ne!(run(8, 16), run(8, 17));
    }

    #[test]
    fn zero_steps_stable() {
        assert_eq!(run(0, 16), run(0, 16));
    }

    #[test]
    #[should_panic]
    fn zero_hidden_rejected() {
        run(4, 0);
    }
}
