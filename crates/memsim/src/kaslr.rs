//! The KASLR'd kernel text layout and the mapped/unmapped probing
//! latency asymmetry (paper Section IV-E).

use crate::tlb::Tlb;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Number of possible kernel text base addresses on Linux/x86-64:
/// a 1 GiB region with 2 MiB alignment.
pub const KASLR_SLOTS: usize = 512;
/// Size of the randomization region in bytes (1 GiB).
pub const KASLR_REGION_BYTES: u64 = 1 << 30;
/// Alignment of the kernel text base (2 MiB).
pub const KASLR_ALIGN: u64 = 2 << 20;

/// Start of the kernel text mapping region in the simulated address space
/// (the canonical `__START_KERNEL_map` value).
pub const KASLR_REGION_START: u64 = 0xffff_ffff_8000_0000;

/// Size of the mapped kernel text in slots (the kernel image spans a few
/// 2 MiB slots starting at the base).
pub const KERNEL_TEXT_SLOTS: usize = 16;

/// Latency parameters for probing kernel addresses from user space.
///
/// Two probing methods exist (paper Figs. 10 and 11):
///
/// * **Direct access** always faults, but the page-walk the fault path
///   performs is shorter for *mapped* addresses (the walk finds a present
///   leaf quickly) than for unmapped ones, and a user-registered SIGSEGV
///   handler absorbs the fault.
/// * **Prefetch** never faults; prefetching a mapped address populates the
///   TLB so later probes are fast, while unmapped addresses walk the full
///   table every time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KaslrTiming {
    /// Cycles for a faulting access to a *mapped* kernel address.
    pub access_mapped: u64,
    /// Cycles for a faulting access to an *unmapped* kernel address.
    pub access_unmapped: u64,
    /// Cycles consumed by the user-space SIGSEGV handler round trip
    /// (paid on every direct access either way).
    pub segfault_handler: u64,
    /// Cycles for a prefetch whose translation hits the TLB.
    pub prefetch_tlb_hit: u64,
    /// Cycles for a prefetch of a mapped address missing the TLB
    /// (page walk finds a valid leaf and installs a translation).
    pub prefetch_mapped_miss: u64,
    /// Cycles for a prefetch of an unmapped address (full failed walk,
    /// nothing cached).
    pub prefetch_unmapped: u64,
}

impl KaslrTiming {
    /// Defaults in the ballpark of published prefetch-attack measurements.
    #[must_use]
    pub fn client_default() -> Self {
        KaslrTiming {
            access_mapped: 760,
            access_unmapped: 1010,
            segfault_handler: 2600,
            prefetch_tlb_hit: 38,
            prefetch_mapped_miss: 245,
            prefetch_unmapped: 410,
        }
    }
}

impl Default for KaslrTiming {
    fn default() -> Self {
        KaslrTiming::client_default()
    }
}

/// A randomized kernel text layout plus the TLB state a probing attacker
/// interacts with.
///
/// ```
/// use memsim::{KaslrLayout, KASLR_SLOTS};
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
/// let layout = KaslrLayout::randomize(&mut rng);
/// assert!(layout.secret_slot() < KASLR_SLOTS);
/// assert!(layout.is_mapped(layout.slot_base(layout.secret_slot())));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KaslrLayout {
    secret_slot: usize,
    timing: KaslrTiming,
    tlb: Tlb,
}

impl KaslrLayout {
    /// Draws a fresh random base slot (what a reboot does).
    pub fn randomize<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let secret_slot = rng.gen_range(0..KASLR_SLOTS - KERNEL_TEXT_SLOTS);
        KaslrLayout::with_slot(secret_slot)
    }

    /// Places the kernel at a specific slot (for reproducible tests).
    ///
    /// # Panics
    ///
    /// Panics if the kernel image would extend past the region.
    #[must_use]
    pub fn with_slot(secret_slot: usize) -> Self {
        assert!(
            secret_slot + KERNEL_TEXT_SLOTS <= KASLR_SLOTS,
            "kernel image must fit in the randomization region"
        );
        KaslrLayout {
            secret_slot,
            timing: KaslrTiming::default(),
            tlb: Tlb::new(64),
        }
    }

    /// The slot index the kernel base was randomized to — the secret the
    /// attack recovers.
    #[must_use]
    pub fn secret_slot(&self) -> usize {
        self.secret_slot
    }

    /// The virtual address of slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= KASLR_SLOTS`.
    #[must_use]
    pub fn slot_base(&self, slot: usize) -> u64 {
        assert!(slot < KASLR_SLOTS, "slot {slot} out of range");
        KASLR_REGION_START + slot as u64 * KASLR_ALIGN
    }

    /// The randomized kernel text base address.
    #[must_use]
    pub fn text_base(&self) -> u64 {
        self.slot_base(self.secret_slot)
    }

    /// Whether `addr` falls inside the mapped kernel image.
    #[must_use]
    pub fn is_mapped(&self, addr: u64) -> bool {
        let base = self.text_base();
        let end = base + KERNEL_TEXT_SLOTS as u64 * KASLR_ALIGN;
        (base..end).contains(&addr)
    }

    /// The active timing model.
    #[must_use]
    pub fn timing(&self) -> &KaslrTiming {
        &self.timing
    }

    /// Simulates one *direct access* probe of `addr` from user space:
    /// the access faults, the registered SIGSEGV handler absorbs it, and
    /// the total cycle cost depends on whether the address was mapped.
    pub fn probe_access(&mut self, addr: u64) -> u64 {
        let walk = if self.is_mapped(addr) {
            // A mapped translation can also be TLB-resident from a prior
            // probe, making the fault path even shorter.
            if self.tlb.lookup(addr) {
                self.timing.access_mapped / 2
            } else {
                self.tlb.insert(addr);
                self.timing.access_mapped
            }
        } else {
            self.timing.access_unmapped
        };
        walk + self.timing.segfault_handler
    }

    /// Simulates one *prefetch* probe of `addr`: never faults; mapped
    /// addresses install a TLB translation making later probes cheap.
    pub fn probe_prefetch(&mut self, addr: u64) -> u64 {
        if self.is_mapped(addr) {
            if self.tlb.lookup(addr) {
                self.timing.prefetch_tlb_hit
            } else {
                self.tlb.insert(addr);
                self.timing.prefetch_mapped_miss
            }
        } else {
            self.timing.prefetch_unmapped
        }
    }

    /// Flushes the attacker-visible TLB state (what happens on a context
    /// switch between probe batches).
    pub fn flush_tlb(&mut self) {
        self.tlb.flush_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn region_geometry() {
        assert_eq!(KASLR_SLOTS as u64 * KASLR_ALIGN, KASLR_REGION_BYTES);
        let layout = KaslrLayout::with_slot(0);
        assert_eq!(layout.slot_base(0), KASLR_REGION_START);
        assert_eq!(layout.slot_base(1) - layout.slot_base(0), KASLR_ALIGN);
    }

    #[test]
    fn mapped_window_spans_kernel_image() {
        let layout = KaslrLayout::with_slot(100);
        assert!(!layout.is_mapped(layout.slot_base(99)));
        assert!(layout.is_mapped(layout.slot_base(100)));
        assert!(layout.is_mapped(layout.slot_base(100 + KERNEL_TEXT_SLOTS - 1)));
        assert!(!layout.is_mapped(layout.slot_base(100 + KERNEL_TEXT_SLOTS)));
    }

    #[test]
    fn randomize_is_in_range_and_seed_deterministic() {
        let mut a = SmallRng::seed_from_u64(3);
        let mut b = SmallRng::seed_from_u64(3);
        let la = KaslrLayout::randomize(&mut a);
        let lb = KaslrLayout::randomize(&mut b);
        assert_eq!(la.secret_slot(), lb.secret_slot());
        assert!(la.secret_slot() + KERNEL_TEXT_SLOTS <= KASLR_SLOTS);
    }

    #[test]
    fn access_probe_distinguishes_mapped() {
        let mut layout = KaslrLayout::with_slot(7);
        let mapped = layout.slot_base(7);
        let unmapped = layout.slot_base(300);
        layout.flush_tlb();
        let t_mapped = layout.probe_access(mapped);
        let t_unmapped = layout.probe_access(unmapped);
        assert!(
            t_mapped < t_unmapped,
            "mapped {t_mapped} should be faster than unmapped {t_unmapped}"
        );
    }

    #[test]
    fn repeated_prefetch_amplifies_difference() {
        let mut layout = KaslrLayout::with_slot(7);
        let mapped = layout.slot_base(7);
        let unmapped = layout.slot_base(300);
        let k = 1000u64;
        let total_mapped: u64 = (0..k).map(|_| layout.probe_prefetch(mapped)).sum();
        layout.flush_tlb();
        let total_unmapped: u64 = (0..k).map(|_| layout.probe_prefetch(unmapped)).sum();
        // Difference grows ~linearly with K.
        let per_probe_gap = layout.timing().prefetch_unmapped - layout.timing().prefetch_tlb_hit;
        let diff = total_unmapped - total_mapped;
        assert!(
            diff > (k - 10) * per_probe_gap * 9 / 10,
            "amplified diff {diff} too small"
        );
    }

    #[test]
    fn tlb_warmth_speeds_up_second_access_probe() {
        let mut layout = KaslrLayout::with_slot(12);
        let mapped = layout.slot_base(12);
        layout.flush_tlb();
        let cold = layout.probe_access(mapped);
        let warm = layout.probe_access(mapped);
        assert!(warm < cold);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_base_bounds_checked() {
        let layout = KaslrLayout::with_slot(0);
        let _ = layout.slot_base(KASLR_SLOTS);
    }
}
