//! Communication operations recorded during a superstep.
//!
//! Every put becomes an out-of-band header (the 6-integer tuple of §6.2:
//! signal type, remote pid, registration reference, offset, length,
//! sequence code — 24 bytes) plus a payload transfer. The runtime resolves
//! both against the simulated network at sync time.
//!
//! A put is the only operation: every program the runtime reproduces
//! (BSPBench, the inner product, the Ch. 8 stencils, the collectives)
//! communicates by put and hp-put alone. An operation owns no bytes. The
//! put data of a superstep lives in the runtime's one staging buffer for
//! that superstep; a [`CommOp`] names its bytes by their span in it. A put
//! therefore costs the host one copy into the staging buffer and no
//! allocation of its own.

use crate::mem::RegHandle;
use std::ops::Range;

/// Size of the §6.2 header message: six 32-bit integers.
pub const HEADER_BYTES: u64 = 24;

/// What a superstep function tells the runtime after its code ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// `bsp_sync`: synchronize and run another superstep.
    Continue,
    /// `bsp_end`: this process is done after the closing sync.
    Halt,
}

/// One recorded `bsp_put`/`bsp_hpput`: write the staged bytes `data` into
/// `(dst, reg, offset)`, committed at virtual time `issue`. The two
/// differ only in the send-side copy, which the sender paid when it
/// issued the op.
#[derive(Debug, Clone, PartialEq)]
pub struct CommOp {
    pub(crate) issue: f64,
    pub(crate) dst: usize,
    pub(crate) reg: RegHandle,
    pub(crate) offset: usize,
    /// Span of the payload in the superstep's staging buffer.
    pub(crate) data: Range<usize>,
}
