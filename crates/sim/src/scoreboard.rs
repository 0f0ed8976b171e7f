//! Per-frame value readiness for the out-of-order core model.

/// Per-frame value readiness for the out-of-order core: for each live
/// frame, the tick at which each SSA value becomes available.
///
/// Consecutive events almost always belong to the same frame, so the
/// executing frame's vector is held inline and frames suspended across a
/// call are parked on a small stack. Frame ids are handed out
/// monotonically and calls nest (`swpf_ir::bytecode`), so a returning
/// frame is normally the top parked entry — but frames are always found
/// *by id*, so nesting only makes the lookup short; any id order behaves
/// like a map from frame id to vector.
///
/// An empty vector is indistinguishable from an absent one (values past
/// the end read as "ready at 0"), which is what lets `Ret` free a frame
/// by clearing it and keeps empty vectors off the parked stack.
#[derive(Debug, Default)]
pub(crate) struct Scoreboard {
    /// Id of the frame `regs` belongs to.
    frame: u64,
    /// Readiness of the executing frame's values, grown on demand.
    regs: Vec<u64>,
    /// Suspended frames, innermost caller last.
    parked: Vec<(u64, Vec<u64>)>,
}

impl Scoreboard {
    /// Make `frame` the executing frame, parking the previous one.
    #[inline]
    pub(crate) fn select(&mut self, frame: u64) {
        if self.frame != frame {
            self.switch_to(frame);
        }
    }

    #[cold]
    fn switch_to(&mut self, frame: u64) {
        let resumed = self
            .parked
            .iter()
            .rposition(|&(id, _)| id == frame)
            .map(|i| self.parked.remove(i).1)
            .unwrap_or_default();
        let suspended = std::mem::replace(&mut self.regs, resumed);
        if !suspended.is_empty() {
            self.parked.push((self.frame, suspended));
        }
        self.frame = frame;
    }

    /// Tick at which value `idx` of the executing frame is ready.
    #[inline]
    pub(crate) fn ready_at(&self, idx: usize) -> u64 {
        self.regs.get(idx).copied().unwrap_or(0)
    }

    /// Record that value `idx` of the executing frame is ready at `done`.
    #[inline]
    pub(crate) fn set_ready(&mut self, idx: usize, done: u64) {
        match self.regs.get_mut(idx) {
            Some(slot) => *slot = done,
            None => self.grow_and_set(idx, done),
        }
    }

    #[cold]
    fn grow_and_set(&mut self, idx: usize, done: u64) {
        self.regs.resize(idx, 0);
        self.regs.push(done);
    }

    /// The executing frame returned: forget its values.
    pub(crate) fn free_frame(&mut self) {
        self.regs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// The structure the scoreboard replaced: a map from frame id to
    /// readiness vector, created on first touch and removed on `Ret`.
    #[derive(Default)]
    struct MapModel(HashMap<u64, Vec<u64>>);

    impl MapModel {
        fn ready_at(&mut self, frame: u64, idx: usize) -> u64 {
            let regs = self.0.entry(frame).or_default();
            regs.get(idx).copied().unwrap_or(0)
        }

        fn set_ready(&mut self, frame: u64, idx: usize, done: u64) {
            let regs = self.0.entry(frame).or_default();
            if regs.len() <= idx {
                regs.resize(idx + 1, 0);
            }
            regs[idx] = done;
        }

        fn ret(&mut self, frame: u64) {
            self.0.remove(&frame);
        }
    }

    /// Drives a [`Scoreboard`] and the map model with the same events
    /// and checks every operand read.
    #[derive(Default)]
    struct Paired {
        board: Scoreboard,
        model: MapModel,
        clock: u64,
    }

    impl Paired {
        /// One non-`Ret` event on `frame`: read `operands`, write `result`.
        fn event(&mut self, frame: u64, operands: &[usize], result: usize) {
            self.board.select(frame);
            for &op in operands {
                assert_eq!(
                    self.board.ready_at(op),
                    self.model.ready_at(frame, op),
                    "frame {frame} value {op}"
                );
            }
            self.clock += 1;
            self.board.set_ready(result, self.clock);
            self.model.set_ready(frame, result, self.clock);
        }

        fn ret(&mut self, frame: u64) {
            self.board.select(frame);
            self.board.free_frame();
            self.model.ret(frame);
        }

        fn random_event(&mut self, rng: &mut StdRng, frame: u64) {
            let operands: Vec<usize> = (0..rng.random_range(0..4usize))
                .map(|_| rng.random_range(0..48usize))
                .collect();
            self.event(frame, &operands, rng.random_range(0..48usize));
        }
    }

    #[test]
    fn scoreboard_matches_map_on_random_nested_calls() {
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = Paired::default();
            let mut next_frame = 1u64;
            let mut stack = vec![0u64];
            let mut returned = Vec::new();
            for _ in 0..4000 {
                let top = *stack.last().unwrap();
                match rng.random_range(0..100u32) {
                    // Call: a fresh, larger frame id starts executing.
                    0..=7 => {
                        stack.push(next_frame);
                        next_frame += 1;
                    }
                    // Return (the root frame returns too, and restarts).
                    8..=14 => {
                        p.ret(top);
                        returned.push(top);
                        stack.pop();
                        if stack.is_empty() {
                            stack.push(next_frame);
                            next_frame += 1;
                        }
                    }
                    // A suspended caller resumed out of stack order.
                    15..=17 => {
                        let frame = stack[rng.random_range(0..stack.len())];
                        p.random_event(&mut rng, frame);
                    }
                    // An event on a frame that already returned.
                    18..=19 if !returned.is_empty() => {
                        let frame = returned[rng.random_range(0..returned.len())];
                        p.random_event(&mut rng, frame);
                    }
                    _ => p.random_event(&mut rng, top),
                }
            }
        }
    }

    #[test]
    fn scoreboard_survives_deep_recursion() {
        let mut p = Paired::default();
        // Far deeper than the parked stack's initial capacity.
        let depth = 300u64;
        for frame in 0..depth {
            p.event(frame, &[0, 1], 1);
            p.event(frame, &[1], frame as usize % 7);
        }
        for frame in (0..depth).rev() {
            p.event(frame, &[0, 1, 2, 3, 4, 5, 6], 2);
            p.ret(frame);
            // Values of a returned frame read as never written.
            p.event(frame, &[0, 1, 2], 0);
            p.ret(frame);
        }
        assert!(p.board.parked.is_empty(), "every frame returned");
    }
}
