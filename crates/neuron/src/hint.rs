//! The host's prefetch instruction — the library's one `unsafe` block.
//!
//! The modelled core never waits for SDRAM: it starts a DMA and walks
//! the row when the transfer is done (§5.2–5.3, Fig. 7). The simulator
//! knows a row's address as early as the model does, so
//! [`SynapticMatrix`](crate::synmatrix::SynapticMatrix) and
//! [`InputRing`](crate::ring::InputRing) ask the host for the line one
//! modelled step before the handler that reads it. Stable Rust has no
//! safe way to say that, and a plain load is no substitute: it cannot
//! retire until its data arrives, so the stall only moves.
//!
//! x86-64 only, selected at build time: the aarch64 intrinsic is
//! unstable, and elsewhere the hint is nothing at all.

#![allow(unsafe_code)]

/// Asks the host to bring `r`'s cache line towards the core. Changes no
/// state the program can observe.
#[inline(always)]
pub(crate) fn prefetch_read<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `prefetcht0` needs SSE, which every x86-64 target
        // has; it cannot fault and has no architectural effect at any
        // address, and this one comes from a live reference.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(r).cast()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}
