//! Segment registers: visible selector plus the hidden descriptor cache.

use crate::descriptor::SegmentDescriptor;
use crate::selector::{PrivilegeLevel, Selector};
use crate::table::DescriptorTables;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The four data-segment registers checked by the privilege-return scrub of
/// paper Algorithm 1. (`CS` and `SS` are handled by separate rules and are
/// never cleared by this path.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataSegReg {
    /// DS — the default data segment.
    Ds,
    /// ES — the string-operation destination segment.
    Es,
    /// FS — used by glibc for thread-local storage on x86-64 Linux, which
    /// is why the paper's probe avoids it.
    Fs,
    /// GS — the register the SegScope probe parks its marker in.
    Gs,
}

impl DataSegReg {
    /// All four data-segment registers in the order Algorithm 1 visits them.
    pub const ALL: [DataSegReg; 4] = [
        DataSegReg::Ds,
        DataSegReg::Es,
        DataSegReg::Fs,
        DataSegReg::Gs,
    ];
}

impl fmt::Display for DataSegReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DataSegReg::Ds => "ds",
            DataSegReg::Es => "es",
            DataSegReg::Fs => "fs",
            DataSegReg::Gs => "gs",
        })
    }
}

/// One segment register: the program-visible selector and the hidden
/// descriptor cache filled on a successful load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct SegmentRegister {
    selector: Selector,
    cache: Option<SegmentDescriptor>,
}

impl SegmentRegister {
    /// A register holding the zero null selector with an empty cache.
    #[must_use]
    pub fn cleared() -> Self {
        SegmentRegister::default()
    }

    /// A register freshly loaded with `selector` caching `descriptor`.
    #[must_use]
    pub fn loaded(selector: Selector, descriptor: SegmentDescriptor) -> Self {
        SegmentRegister {
            selector,
            cache: Some(descriptor),
        }
    }

    /// A register holding a (possibly non-zero) null selector: no fault on
    /// load, no descriptor cached.
    #[must_use]
    pub fn null(selector: Selector) -> Self {
        debug_assert!(selector.is_null());
        SegmentRegister {
            selector,
            cache: None,
        }
    }

    /// The visible selector value (what a `mov r16, gs` instruction reads).
    #[must_use]
    pub fn selector(&self) -> Selector {
        self.selector
    }

    /// The hidden descriptor cache, if a descriptor has been loaded.
    #[must_use]
    pub fn descriptor_cache(&self) -> Option<&SegmentDescriptor> {
        self.cache.as_ref()
    }

    /// Hardware scrub: reset the visible selector to zero and drop the
    /// cached descriptor. This is the footprint-producing operation.
    pub fn clear(&mut self) {
        self.selector = Selector::NULL;
        self.cache = None;
    }
}

/// The full segment-register file of one logical CPU context.
///
/// Only the pieces relevant to the reproduced checks are modeled: the CS
/// register's RPL (which encodes the privilege level an `iret` returns to)
/// and the four data-segment registers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentRegisterFile {
    cs_rpl: PrivilegeLevel,
    ds: SegmentRegister,
    es: SegmentRegister,
    fs: SegmentRegister,
    gs: SegmentRegister,
}

impl SegmentRegisterFile {
    /// The register file of a freshly exec'd flat-model user process: CS.RPL
    /// is ring 3; DS/ES point at the flat user-data segment; FS carries the
    /// TLS segment (also user data here); GS is cleared — exactly the state
    /// a SegScope probe finds on Linux before planting its marker.
    #[must_use]
    pub fn flat_user() -> Self {
        let tables = DescriptorTables::linux_flat();
        let user_sel = DescriptorTables::user_data_selector();
        let user_desc = tables
            .lookup(user_sel)
            .expect("linux_flat always defines the user data segment");
        SegmentRegisterFile {
            cs_rpl: PrivilegeLevel::Ring3,
            ds: SegmentRegister::loaded(user_sel, user_desc),
            es: SegmentRegister::loaded(user_sel, user_desc),
            fs: SegmentRegister::loaded(user_sel, user_desc),
            gs: SegmentRegister::cleared(),
        }
    }

    /// The RPL field of CS: the privilege level of the code the context
    /// belongs to (ring 3 for a user process).
    #[must_use]
    pub fn cs_rpl(&self) -> PrivilegeLevel {
        self.cs_rpl
    }

    /// Immutable access to one data-segment register.
    #[must_use]
    pub fn register(&self, reg: DataSegReg) -> &SegmentRegister {
        match reg {
            DataSegReg::Ds => &self.ds,
            DataSegReg::Es => &self.es,
            DataSegReg::Fs => &self.fs,
            DataSegReg::Gs => &self.gs,
        }
    }

    /// Mutable access to one data-segment register.
    pub fn register_mut(&mut self, reg: DataSegReg) -> &mut SegmentRegister {
        match reg {
            DataSegReg::Ds => &mut self.ds,
            DataSegReg::Es => &mut self.es,
            DataSegReg::Fs => &mut self.fs,
            DataSegReg::Gs => &mut self.gs,
        }
    }

    /// Shorthand for the visible selector of one register.
    #[must_use]
    pub fn selector(&self, reg: DataSegReg) -> Selector {
        self.register(reg).selector()
    }

    /// Loads a *null* selector (any of `0x0..=0x3`) into a register: never
    /// faults, clears the descriptor cache.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `selector` is not null; use
    /// [`crate::load_data_segment`] for general loads.
    pub fn load_null(&mut self, reg: DataSegReg, selector: Selector) {
        debug_assert!(selector.is_null(), "load_null requires a null selector");
        *self.register_mut(reg) = SegmentRegister::null(selector);
    }
}

impl Default for SegmentRegisterFile {
    fn default() -> Self {
        SegmentRegisterFile::flat_user()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_user_initial_state() {
        let regs = SegmentRegisterFile::flat_user();
        assert_eq!(regs.cs_rpl(), PrivilegeLevel::Ring3);
        assert!(!regs.selector(DataSegReg::Ds).is_null());
        assert!(!regs.selector(DataSegReg::Fs).is_null());
        assert!(regs.selector(DataSegReg::Gs).is_zero());
        assert!(regs.register(DataSegReg::Ds).descriptor_cache().is_some());
        assert!(regs.register(DataSegReg::Gs).descriptor_cache().is_none());
    }

    #[test]
    fn clear_resets_selector_and_cache() {
        let mut regs = SegmentRegisterFile::flat_user();
        regs.register_mut(DataSegReg::Ds).clear();
        assert!(regs.selector(DataSegReg::Ds).is_zero());
        assert!(regs.register(DataSegReg::Ds).descriptor_cache().is_none());
    }

    #[test]
    fn load_null_preserves_nonzero_value() {
        let mut regs = SegmentRegisterFile::flat_user();
        let marker = Selector::null_with_rpl(PrivilegeLevel::Ring3);
        regs.load_null(DataSegReg::Gs, marker);
        assert_eq!(regs.selector(DataSegReg::Gs), marker);
        assert_eq!(regs.selector(DataSegReg::Gs).bits(), 0x3);
    }

    #[test]
    fn register_access_is_per_register() {
        let mut regs = SegmentRegisterFile::flat_user();
        regs.load_null(
            DataSegReg::Gs,
            Selector::null_with_rpl(PrivilegeLevel::Ring1),
        );
        for reg in [DataSegReg::Ds, DataSegReg::Es, DataSegReg::Fs] {
            assert!(
                !regs.selector(reg).is_nonzero_null(),
                "{reg} unexpectedly touched"
            );
        }
        assert!(regs.selector(DataSegReg::Gs).is_nonzero_null());
    }

    #[test]
    fn data_seg_reg_display() {
        assert_eq!(DataSegReg::Gs.to_string(), "gs");
        assert_eq!(DataSegReg::ALL.len(), 4);
    }
}
