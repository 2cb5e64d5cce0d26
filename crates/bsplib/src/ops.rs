//! Communication operations recorded during a superstep.
//!
//! Every one-sided call becomes an out-of-band header (the 6-integer tuple
//! of §6.2: signal type, remote pid, registration reference, offset,
//! length, sequence code — 24 bytes) plus, for data-bearing operations, a
//! payload transfer. The runtime resolves them against the simulated
//! network at sync time.
//!
//! An operation owns no bytes. Everything a superstep commits — put data,
//! BSMP tags and payloads, and at sync time the pre-put snapshots of the
//! gets — lives in the runtime's one staging buffer for that superstep;
//! a [`CommOp`] names its bytes by their span in it. A put therefore costs
//! the host one copy into the staging buffer and no allocation of its own.

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

/// One recorded communication operation, with the virtual time the calling
/// process committed it.
#[derive(Debug, Clone, PartialEq)]
pub enum CommOp {
    /// `bsp_put`/`bsp_hpput`: write the staged bytes `data` into
    /// `(dst, reg, offset)`. The two differ only in the send-side copy,
    /// which the sender paid when it issued the op.
    Put {
        issue: f64,
        dst: usize,
        reg: RegHandle,
        offset: usize,
        /// Span of the payload in the superstep's staging buffer.
        data: Range<usize>,
    },
    /// `bsp_get`/`bsp_hpget`: read `len` bytes from `(src, src_reg,
    /// src_offset)` into the local `(dst_reg, dst_offset)`.
    Get {
        issue: f64,
        src: usize,
        src_reg: RegHandle,
        src_offset: usize,
        dst_reg: RegHandle,
        dst_offset: usize,
        len: usize,
    },
    /// `bsp_send`: BSMP message into `dst`'s queue, visible next
    /// superstep. `tag` and `payload` are spans of the staging buffer.
    Send {
        issue: f64,
        dst: usize,
        tag: Range<usize>,
        payload: Range<usize>,
    },
}

impl CommOp {
    /// The process whose memory or queue this operation targets.
    pub fn target(&self) -> usize {
        match self {
            CommOp::Put { dst, .. } | CommOp::Send { dst, .. } => *dst,
            CommOp::Get { src, .. } => *src,
        }
    }

    /// Payload bytes this operation will move (get counted at reply time).
    pub fn payload_bytes(&self) -> u64 {
        match self {
            CommOp::Put { data, .. } => data.len() as u64,
            CommOp::Get { len, .. } => *len as u64,
            CommOp::Send { tag, payload, .. } => (tag.len() + payload.len()) as u64,
        }
    }

    /// Virtual issue time.
    pub fn issue(&self) -> f64 {
        match self {
            CommOp::Put { issue, .. } | CommOp::Get { issue, .. } | CommOp::Send { issue, .. } => {
                *issue
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_and_bytes() {
        let put = CommOp::Put {
            issue: 1.0,
            dst: 3,
            reg: RegHandle(0),
            offset: 0,
            data: 40..140,
        };
        assert_eq!(put.target(), 3);
        assert_eq!(put.payload_bytes(), 100);
        assert_eq!(put.issue(), 1.0);

        let get = CommOp::Get {
            issue: 2.0,
            src: 5,
            src_reg: RegHandle(1),
            src_offset: 8,
            dst_reg: RegHandle(2),
            dst_offset: 0,
            len: 64,
        };
        assert_eq!(get.target(), 5);
        assert_eq!(get.payload_bytes(), 64);

        let send = CommOp::Send {
            issue: 3.0,
            dst: 1,
            tag: 0..4,
            payload: 4..14,
        };
        assert_eq!(send.payload_bytes(), 14);
    }
}
