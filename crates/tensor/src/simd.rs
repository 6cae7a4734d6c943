//! Runtime instruction-set selection for the dispatched kernels
//! (docs/ARCHITECTURE.md, "Dense kernels").
//!
//! A dispatched kernel is one `#[inline(always)]` body compiled once per
//! instruction set: as is, for the target's baseline, and inside wrappers
//! marked `#[target_feature(enable = "avx2")]` or
//! `#[target_feature(enable = "avx512f")]`. A kernel may instantiate the
//! body at a width that suits the instruction set (more lanes or rows per
//! register tile), but never reorders a float operation to do so. The
//! caller branches on [`isa`] once per row chunk, row or block, never per
//! lane. The wrappers enable avx2 or avx512f, never fma, and Rust never
//! contracts `a * b + c` (not even where the compiler takes `avx512f` to
//! imply `fma`), so every copy rounds every product and sum apart in the
//! same order and gives the same bits.
//!
//! Detection runs once per process and is cached. It is compiled only on
//! x86-64; every other target runs the baseline body.

/// An instruction set a dispatched kernel can be compiled for, narrowest
/// first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// The target's baseline (SSE2 on x86-64).
    Baseline,
    /// AVX2: one 256-bit register holds eight `f32` lanes.
    Avx2,
    /// AVX-512F (with AVX2): one 512-bit register holds sixteen `f32`
    /// lanes, and there are 32 of them.
    Avx512,
}

impl Isa {
    /// Lower-case name, as in the `vrdag_kernel_isa{isa=}` gauge.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Baseline => "baseline",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// True when this CPU can run kernels compiled for `self`.
    pub fn is_supported(self) -> bool {
        self <= detected()
    }
}

/// Every instruction set this CPU supports, baseline first.
pub fn supported() -> impl Iterator<Item = Isa> {
    [Isa::Baseline, Isa::Avx2, Isa::Avx512].into_iter().filter(|isa| isa.is_supported())
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

/// The widest instruction set this CPU supports: each one includes the
/// narrower ones. `std` queries the CPU (and the OS's register state) once
/// per process and caches the answer.
fn detected() -> Isa {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        return if std::is_x86_feature_detected!("avx512f") { Isa::Avx512 } else { Isa::Avx2 };
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
/// Panics when the CPU does not support `isa`: the kernels' `avx2` and
/// `avx512f` copies rely on [`isa`] never naming an instruction set the CPU lacks.
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
    fn avx512_is_selected_exactly_when_avx2_and_avx512f_are_detected() {
        #[cfg(target_arch = "x86_64")]
        let (avx2, avx512f) =
            (std::is_x86_feature_detected!("avx2"), std::is_x86_feature_detected!("avx512f"));
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, avx512f) = (false, false);
        let want = match (avx2, avx512f) {
            (true, true) => Isa::Avx512,
            (true, false) => Isa::Avx2,
            (false, _) => Isa::Baseline,
        };
        assert_eq!(isa(), want, "avx2={avx2} avx512f={avx512f}");
        assert_eq!(Isa::Avx512.is_supported(), avx2 && avx512f);
        assert_eq!(Isa::Avx2.is_supported(), avx2);
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
