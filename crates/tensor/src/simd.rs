//! Runtime instruction-set selection for the dispatched kernels
//! (docs/ARCHITECTURE.md, "Dense kernels").
//!
//! A dispatched kernel is one `#[inline(always)]` body compiled twice: as
//! is, for the target's baseline, and inside a wrapper marked
//! `#[target_feature(enable = "avx2")]`. The caller branches on [`isa`]
//! once per row chunk or block, never per lane. Only `avx2` is enabled,
//! never `fma`, and Rust never contracts `a * b + c`, so both copies round
//! every product and sum apart in the same order and give the same bits.
//!
//! Detection runs once per process and is cached. It is compiled only on
//! x86-64; every other target runs the baseline body.

/// An instruction set a dispatched kernel can be compiled for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// The target's baseline (SSE2 on x86-64).
    Baseline,
    /// AVX2: one 256-bit register holds eight `f32` lanes.
    Avx2,
}

impl Isa {
    /// Lower-case name, as in the `vrdag_kernel_isa{isa=}` gauge.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Baseline => "baseline",
            Isa::Avx2 => "avx2",
        }
    }

    /// True when this CPU can run kernels compiled for `self`.
    pub fn is_supported(self) -> bool {
        self == Isa::Baseline || detected() == Isa::Avx2
    }
}

/// Every instruction set this CPU supports, baseline first.
pub fn supported() -> impl Iterator<Item = Isa> {
    [Isa::Baseline, Isa::Avx2].into_iter().filter(|isa| isa.is_supported())
}

/// The instruction set the dispatched kernels run on: the widest one the
/// CPU supports. Unit tests of this crate may select another with
/// `with_isa`.
pub fn isa() -> Isa {
    #[cfg(test)]
    if let Some(isa) = SELECTED.with(std::cell::Cell::get) {
        return isa;
    }
    detected()
}

/// The widest instruction set this CPU supports. `std` queries the CPU
/// once per process and caches the answer.
fn detected() -> Isa {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        return Isa::Avx2;
    }
    Isa::Baseline
}

#[cfg(test)]
thread_local! {
    static SELECTED: std::cell::Cell<Option<Isa>> = const { std::cell::Cell::new(None) };
}

/// Run `f` with [`isa`] returning `isa` on this thread, restoring the
/// previous selection afterwards (also on panic).
///
/// # Panics
/// Panics when the CPU does not support `isa`: the kernels' `avx2` copies
/// rely on [`isa`] never naming an instruction set the CPU lacks.
#[cfg(test)]
pub(crate) fn with_isa<R>(isa: Isa, f: impl FnOnce() -> R) -> R {
    struct Reset(Option<Isa>);
    impl Drop for Reset {
        fn drop(&mut self) {
            SELECTED.with(|c| c.set(self.0));
        }
    }
    assert!(isa.is_supported(), "this CPU does not support {}", isa.name());
    let _reset = Reset(SELECTED.with(|c| c.replace(Some(isa))));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_always_supported_and_selected_isa_is_supported() {
        assert!(Isa::Baseline.is_supported());
        assert_eq!(supported().next(), Some(Isa::Baseline));
        assert!(isa().is_supported());
        assert_eq!(supported().last(), Some(isa()), "the widest supported ISA is selected");
    }

    #[test]
    fn with_isa_selects_and_restores() {
        let detected = isa();
        for each in supported() {
            assert_eq!(with_isa(each, isa), each);
        }
        assert_eq!(isa(), detected);
    }
}
