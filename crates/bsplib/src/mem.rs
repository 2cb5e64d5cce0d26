//! Per-process memory and registration state.
//!
//! BSPlib's one-sided operations name remote memory by *registration*:
//! §6.2 implements registration and deregistration with two queues of
//! pointers and indices that are committed to a hash table at
//! synchronization time, so that programs refer to a buffer by a
//! consistent reference regardless of per-process layout. Here a
//! buffer's handle is its index, so the table is one flag per buffer, and
//! no program deregisters, so registration only grows: a `push_reg` is
//! queued during a superstep and sets the flag at the next sync.

/// A handle naming a buffer consistently across processes (the analogue of
/// the registered pointer value): the buffer's allocation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RegHandle(pub usize);

/// Writes `vals` as little-endian bytes into `out`, which must hold exactly
/// eight bytes per value. Registered buffers and put slots are bytes; this
/// and [`f64s`] are the one `f64` marshalling every program shares.
pub fn write_f64s(vals: impl ExactSizeIterator<Item = f64>, out: &mut [u8]) {
    assert_eq!(
        out.len(),
        8 * vals.len(),
        "slot must hold eight bytes per value"
    );
    for (chunk, v) in out.chunks_exact_mut(8).zip(vals) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
}

/// The little-endian `f64`s stored in `bytes` (a multiple of eight long).
pub fn f64s(bytes: &[u8]) -> impl ExactSizeIterator<Item = f64> + '_ {
    assert_eq!(bytes.len() % 8, 0, "byte length must be a multiple of 8");
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
}

/// One process' memory: buffers and their registration flags.
#[derive(Debug, Default)]
pub struct ProcMem {
    bufs: Vec<Vec<u8>>,
    /// `registered[h]`: buffer `h` is a remote target this superstep.
    registered: Vec<bool>,
    push_queue: Vec<RegHandle>,
}

impl ProcMem {
    /// Allocates a zero-filled buffer, returning its handle. SPMD programs
    /// allocate in the same order on every process, so handles agree.
    pub fn alloc(&mut self, bytes: usize) -> RegHandle {
        self.bufs.push(vec![0u8; bytes]);
        self.registered.push(false);
        RegHandle(self.bufs.len() - 1)
    }

    /// Buffer length.
    pub fn len(&self, h: RegHandle) -> usize {
        self.bufs[h.0].len()
    }

    /// True when no buffer exists yet.
    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// Read-only view of a buffer.
    pub fn read(&self, h: RegHandle) -> &[u8] {
        &self.bufs[h.0]
    }

    /// Mutable view of a buffer.
    pub fn write(&mut self, h: RegHandle) -> &mut [u8] {
        &mut self.bufs[h.0]
    }

    /// Queues a registration (effective after the next sync).
    pub fn queue_push_reg(&mut self, h: RegHandle) {
        assert!(h.0 < self.bufs.len(), "push_reg of unknown buffer");
        self.push_queue.push(h);
    }

    /// True when `h` is usable as a remote target this superstep.
    pub fn is_registered(&self, h: RegHandle) -> bool {
        self.registered.get(h.0) == Some(&true)
    }

    /// Commits queued registrations — the sync-time bookkeeping of §6.2.
    pub fn commit_sync(&mut self) {
        for h in self.push_queue.drain(..) {
            self.registered[h.0] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_rw() {
        let mut m = ProcMem::default();
        let h = m.alloc(8);
        m.write(h)[0] = 42;
        assert_eq!(m.read(h)[0], 42);
        assert_eq!(m.len(h), 8);
    }

    #[test]
    fn registration_takes_effect_at_sync() {
        let mut m = ProcMem::default();
        let h = m.alloc(4);
        m.queue_push_reg(h);
        assert!(!m.is_registered(h), "not visible before sync");
        m.commit_sync();
        assert!(m.is_registered(h));
        m.commit_sync();
        assert!(m.is_registered(h), "registration persists");
    }

    #[test]
    fn f64_marshalling_round_trips() {
        let vals = [0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, 1e-300];
        let mut bytes = [0u8; 40];
        write_f64s(vals.into_iter(), &mut bytes);
        assert_eq!(bytes[8..16], (-1.5f64).to_le_bytes());
        assert_eq!(f64s(&bytes).collect::<Vec<_>>(), vals);
        assert_eq!(f64s(&[]).len(), 0);
    }

    #[test]
    #[should_panic(expected = "eight bytes per value")]
    fn write_f64s_rejects_a_short_slot() {
        write_f64s([1.0, 2.0].into_iter(), &mut [0u8; 8]);
    }

    #[test]
    #[should_panic]
    fn push_reg_unknown_buffer_rejected() {
        let mut m = ProcMem::default();
        m.queue_push_reg(RegHandle(3));
    }
}
