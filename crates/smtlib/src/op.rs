//! Function symbols (operators) and their sort-checking rules.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;

use staub_numeric::{BigInt, BigRational, BitVecValue, RoundingMode, SoftFloat};

use crate::sort::Sort;
use crate::term::SymbolId;

/// Every term head supported by the front end: constants, variables, and
/// function applications from the Core, Ints, Reals, FixedSizeBitVectors,
/// and FloatingPoint theories, plus the overflow predicates STAUB's
/// translation emits (proposed for SMT-LIB v3; implemented by Z3 and CVC5).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    // --- leaves -----------------------------------------------------------
    /// A declared constant (0-ary function).
    Var(SymbolId),
    /// `true`.
    True,
    /// `false`.
    False,
    /// Integer literal.
    IntConst(BigInt),
    /// Real (decimal or fraction) literal.
    RealConst(BigRational),
    /// Bitvector literal.
    BvConst(BitVecValue),
    /// Floating-point literal.
    FpConst(SoftFloat),
    /// Rounding-mode literal (`RNE`, `RTZ`, ...).
    RmConst(RoundingMode),

    // --- core -------------------------------------------------------------
    /// Boolean negation.
    Not,
    /// N-ary conjunction.
    And,
    /// N-ary disjunction.
    Or,
    /// N-ary exclusive or (left-associative chain).
    Xor,
    /// Right-associative implication.
    Implies,
    /// If-then-else; condition is boolean, branches share any sort.
    Ite,
    /// Chainable equality over any single sort.
    Eq,
    /// Pairwise distinctness over any single sort.
    Distinct,

    // --- integer / real arithmetic ----------------------------------------
    /// Unary minus.
    Neg,
    /// N-ary addition.
    Add,
    /// Left-associative subtraction (at least two arguments).
    Sub,
    /// N-ary multiplication.
    Mul,
    /// Euclidean integer division (`div`).
    IntDiv,
    /// Euclidean integer remainder (`mod`).
    Mod,
    /// Integer absolute value.
    Abs,
    /// Real division (`/`).
    RealDiv,
    /// `<=` over Int or Real.
    Le,
    /// `<` over Int or Real.
    Lt,
    /// `>=` over Int or Real.
    Ge,
    /// `>` over Int or Real.
    Gt,

    // --- bitvectors ---------------------------------------------------------
    /// Two's-complement addition.
    BvAdd,
    /// Two's-complement subtraction.
    BvSub,
    /// Two's-complement multiplication.
    BvMul,
    /// Two's-complement negation.
    BvNeg,
    /// Signed division (truncating).
    BvSdiv,
    /// Signed remainder.
    BvSrem,
    /// Unsigned division.
    BvUdiv,
    /// Unsigned remainder.
    BvUrem,
    /// Shift left.
    BvShl,
    /// Logical shift right.
    BvLshr,
    /// Arithmetic shift right.
    BvAshr,
    /// Bitwise and.
    BvAnd,
    /// Bitwise or.
    BvOr,
    /// Bitwise xor.
    BvXor,
    /// Bitwise not.
    BvNot,
    /// Signed less-than.
    BvSlt,
    /// Signed less-or-equal.
    BvSle,
    /// Signed greater-than.
    BvSgt,
    /// Signed greater-or-equal.
    BvSge,
    /// Unsigned less-than.
    BvUlt,
    /// Unsigned less-or-equal.
    BvUle,
    /// Signed addition overflow predicate.
    BvSaddo,
    /// Signed subtraction overflow predicate.
    BvSsubo,
    /// Signed multiplication overflow predicate.
    BvSmulo,
    /// Signed division overflow predicate.
    BvSdivo,
    /// Negation overflow predicate.
    BvNego,
    /// Sign extension by `n` extra bits (indexed operator).
    BvSignExtend(u32),
    /// Zero extension by `n` extra bits (indexed operator).
    BvZeroExtend(u32),
    /// Bit extraction `(_ extract hi lo)`.
    BvExtract(u32, u32),

    // --- floating point -----------------------------------------------------
    /// `fp.add` (first argument is the rounding mode).
    FpAdd,
    /// `fp.sub`.
    FpSub,
    /// `fp.mul`.
    FpMul,
    /// `fp.div`.
    FpDiv,
    /// `fp.neg` (no rounding mode).
    FpNeg,
    /// `fp.abs` (no rounding mode).
    FpAbs,
    /// IEEE equality `fp.eq`.
    FpEq,
    /// `fp.lt`.
    FpLt,
    /// `fp.leq`.
    FpLeq,
    /// `fp.gt`.
    FpGt,
    /// `fp.geq`.
    FpGeq,
    /// `fp.isNaN`.
    FpIsNan,
    /// `fp.isInfinite`.
    FpIsInf,
}

/// Error returned when an application is ill-sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortError {
    message: String,
}

impl SortError {
    pub(crate) fn new(message: impl Into<String>) -> SortError {
        SortError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ill-sorted term: {}", self.message)
    }
}

impl Error for SortError {}

impl Op {
    /// Returns `true` if the operator is a leaf (constant or variable).
    pub fn is_leaf(&self) -> bool {
        matches!(
            self,
            Op::Var(_)
                | Op::True
                | Op::False
                | Op::IntConst(_)
                | Op::RealConst(_)
                | Op::BvConst(_)
                | Op::FpConst(_)
                | Op::RmConst(_)
        )
    }

    /// Computes the result sort of applying `self` to arguments of the given
    /// sorts (for leaves, `var_sort` supplies the variable's declared sort).
    ///
    /// # Errors
    ///
    /// Returns [`SortError`] if the arity or argument sorts are invalid.
    pub fn result_sort(&self, args: &[Sort], var_sort: Option<Sort>) -> Result<Sort, SortError> {
        use Op::*;
        let fail = |msg: String| Err(SortError::new(msg));
        let want_arity = |n: usize| -> Result<(), SortError> {
            if args.len() == n {
                Ok(())
            } else {
                Err(SortError::new(format!(
                    "{self:?} expects {n} arguments, got {}",
                    args.len()
                )))
            }
        };
        let want_min_arity = |n: usize| -> Result<(), SortError> {
            if args.len() >= n {
                Ok(())
            } else {
                Err(SortError::new(format!(
                    "{self:?} expects at least {n} arguments, got {}",
                    args.len()
                )))
            }
        };
        let all_same = || -> Result<Sort, SortError> {
            let first = args[0];
            if args.iter().all(|&s| s == first) {
                Ok(first)
            } else {
                Err(SortError::new(format!(
                    "{self:?} expects arguments of one sort, got {args:?}"
                )))
            }
        };
        let all_bool = || -> Result<(), SortError> {
            if args.iter().all(|&s| s == Sort::Bool) {
                Ok(())
            } else {
                Err(SortError::new(format!(
                    "{self:?} expects Bool arguments, got {args:?}"
                )))
            }
        };
        let numeric_same = |kind: fn(Sort) -> bool| -> Result<Sort, SortError> {
            let first = args[0];
            if !kind(first) {
                return Err(SortError::new(format!(
                    "{self:?} got unexpected argument sort {first}"
                )));
            }
            if args.iter().all(|&s| s == first) {
                Ok(first)
            } else {
                Err(SortError::new(format!(
                    "{self:?} expects arguments of one sort, got {args:?}"
                )))
            }
        };
        let is_int_real = |s: Sort| matches!(s, Sort::Int | Sort::Real);
        let is_bv = Sort::is_bitvec;
        let is_fp = Sort::is_float;

        match self {
            Var(_) => {
                want_arity(0)?;
                var_sort.ok_or_else(|| SortError::new("variable without declared sort"))
            }
            True | False => {
                want_arity(0)?;
                Ok(Sort::Bool)
            }
            IntConst(_) => {
                want_arity(0)?;
                Ok(Sort::Int)
            }
            RealConst(_) => {
                want_arity(0)?;
                Ok(Sort::Real)
            }
            BvConst(v) => {
                want_arity(0)?;
                Ok(Sort::BitVec(v.width()))
            }
            FpConst(v) => {
                want_arity(0)?;
                Ok(Sort::Float(v.eb(), v.sb()))
            }
            RmConst(_) => {
                want_arity(0)?;
                Ok(Sort::RoundingMode)
            }

            Not => {
                want_arity(1)?;
                all_bool()?;
                Ok(Sort::Bool)
            }
            And | Or | Xor => {
                want_min_arity(1)?;
                all_bool()?;
                Ok(Sort::Bool)
            }
            Implies => {
                want_min_arity(2)?;
                all_bool()?;
                Ok(Sort::Bool)
            }
            Ite => {
                want_arity(3)?;
                if args[0] != Sort::Bool {
                    return fail(format!("ite condition must be Bool, got {}", args[0]));
                }
                if args[1] != args[2] {
                    return fail(format!(
                        "ite branches must share a sort, got {} and {}",
                        args[1], args[2]
                    ));
                }
                Ok(args[1])
            }
            Eq | Distinct => {
                want_min_arity(2)?;
                all_same()?;
                Ok(Sort::Bool)
            }

            Neg | Abs => {
                want_arity(1)?;
                if self == &Abs && args[0] != Sort::Int {
                    return fail(format!("abs is integer-only, got {}", args[0]));
                }
                numeric_same(is_int_real)
            }
            Add | Mul => {
                want_min_arity(2)?;
                numeric_same(is_int_real)
            }
            Sub => {
                want_min_arity(2)?;
                numeric_same(is_int_real)
            }
            IntDiv | Mod => {
                want_arity(2)?;
                if args.iter().all(|&s| s == Sort::Int) {
                    Ok(Sort::Int)
                } else {
                    fail(format!("{self:?} expects Int arguments, got {args:?}"))
                }
            }
            RealDiv => {
                want_min_arity(2)?;
                if args.iter().all(|&s| s == Sort::Real) {
                    Ok(Sort::Real)
                } else {
                    fail(format!("/ expects Real arguments, got {args:?}"))
                }
            }
            Le | Lt | Ge | Gt => {
                want_min_arity(2)?;
                numeric_same(is_int_real)?;
                Ok(Sort::Bool)
            }

            BvAdd | BvSub | BvMul | BvSdiv | BvSrem | BvUdiv | BvUrem | BvShl | BvLshr | BvAshr
            | BvAnd | BvOr | BvXor => {
                want_arity(2)?;
                numeric_same(is_bv)
            }
            BvNeg | BvNot => {
                want_arity(1)?;
                numeric_same(is_bv)
            }
            BvSlt | BvSle | BvSgt | BvSge | BvUlt | BvUle | BvSaddo | BvSsubo | BvSmulo
            | BvSdivo => {
                want_arity(2)?;
                numeric_same(is_bv)?;
                Ok(Sort::Bool)
            }
            BvNego => {
                want_arity(1)?;
                numeric_same(is_bv)?;
                Ok(Sort::Bool)
            }
            BvSignExtend(n) | BvZeroExtend(n) => {
                want_arity(1)?;
                match args[0] {
                    Sort::BitVec(w) => Ok(Sort::BitVec(w + n)),
                    s => fail(format!("extension expects a bitvector, got {s}")),
                }
            }
            BvExtract(hi, lo) => {
                want_arity(1)?;
                match args[0] {
                    Sort::BitVec(w) if *hi < w && lo <= hi => Ok(Sort::BitVec(hi - lo + 1)),
                    s => fail(format!("(_ extract {hi} {lo}) invalid on {s}")),
                }
            }

            FpAdd | FpSub | FpMul | FpDiv => {
                want_arity(3)?;
                if args[0] != Sort::RoundingMode {
                    return fail(format!(
                        "{self:?} expects a RoundingMode first argument, got {}",
                        args[0]
                    ));
                }
                if !is_fp(args[1]) || args[1] != args[2] {
                    return fail(format!(
                        "{self:?} expects matching FP arguments, got {args:?}"
                    ));
                }
                Ok(args[1])
            }
            FpNeg | FpAbs => {
                want_arity(1)?;
                numeric_same(is_fp)
            }
            FpEq | FpLt | FpLeq | FpGt | FpGeq => {
                want_min_arity(2)?;
                numeric_same(is_fp)?;
                Ok(Sort::Bool)
            }
            FpIsNan | FpIsInf => {
                want_arity(1)?;
                numeric_same(is_fp)?;
                Ok(Sort::Bool)
            }
        }
    }

    /// The SMT-LIB concrete syntax for this operator head (leaves print
    /// their value; indexed operators print the full `(_ ...)` form).
    pub fn smtlib_name(&self) -> Cow<'static, str> {
        use Op::*;
        match self {
            Var(_) => "<var>".into(),
            True => "true".into(),
            False => "false".into(),
            IntConst(v) => v.to_string().into(),
            RealConst(v) => v.to_string().into(),
            BvConst(v) => v.to_string().into(),
            FpConst(_) => "<fp-literal>".into(),
            RmConst(m) => match m {
                RoundingMode::NearestEven => "RNE".into(),
                RoundingMode::NearestAway => "RNA".into(),
                RoundingMode::TowardPositive => "RTP".into(),
                RoundingMode::TowardNegative => "RTN".into(),
                RoundingMode::TowardZero => "RTZ".into(),
            },
            Not => "not".into(),
            And => "and".into(),
            Or => "or".into(),
            Xor => "xor".into(),
            Implies => "=>".into(),
            Ite => "ite".into(),
            Eq => "=".into(),
            Distinct => "distinct".into(),
            Neg | Sub => "-".into(),
            Add => "+".into(),
            Mul => "*".into(),
            IntDiv => "div".into(),
            Mod => "mod".into(),
            Abs => "abs".into(),
            RealDiv => "/".into(),
            Le => "<=".into(),
            Lt => "<".into(),
            Ge => ">=".into(),
            Gt => ">".into(),
            BvAdd => "bvadd".into(),
            BvSub => "bvsub".into(),
            BvMul => "bvmul".into(),
            BvNeg => "bvneg".into(),
            BvSdiv => "bvsdiv".into(),
            BvSrem => "bvsrem".into(),
            BvUdiv => "bvudiv".into(),
            BvUrem => "bvurem".into(),
            BvShl => "bvshl".into(),
            BvLshr => "bvlshr".into(),
            BvAshr => "bvashr".into(),
            BvAnd => "bvand".into(),
            BvOr => "bvor".into(),
            BvXor => "bvxor".into(),
            BvNot => "bvnot".into(),
            BvSlt => "bvslt".into(),
            BvSle => "bvsle".into(),
            BvSgt => "bvsgt".into(),
            BvSge => "bvsge".into(),
            BvUlt => "bvult".into(),
            BvUle => "bvule".into(),
            BvSaddo => "bvsaddo".into(),
            BvSsubo => "bvssubo".into(),
            BvSmulo => "bvsmulo".into(),
            BvSdivo => "bvsdivo".into(),
            BvNego => "bvnego".into(),
            BvSignExtend(n) => format!("(_ sign_extend {n})").into(),
            BvZeroExtend(n) => format!("(_ zero_extend {n})").into(),
            BvExtract(hi, lo) => format!("(_ extract {hi} {lo})").into(),
            FpAdd => "fp.add".into(),
            FpSub => "fp.sub".into(),
            FpMul => "fp.mul".into(),
            FpDiv => "fp.div".into(),
            FpNeg => "fp.neg".into(),
            FpAbs => "fp.abs".into(),
            FpEq => "fp.eq".into(),
            FpLt => "fp.lt".into(),
            FpLeq => "fp.leq".into(),
            FpGt => "fp.gt".into(),
            FpGeq => "fp.geq".into(),
            FpIsNan => "fp.isNaN".into(),
            FpIsInf => "fp.isInfinite".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_errors() {
        assert!(Op::Not.result_sort(&[], None).is_err());
        assert!(Op::Not
            .result_sort(&[Sort::Bool, Sort::Bool], None)
            .is_err());
        assert!(Op::Ite.result_sort(&[Sort::Bool, Sort::Int], None).is_err());
        assert!(Op::Add.result_sort(&[Sort::Int], None).is_err());
    }

    #[test]
    fn sort_mismatch_errors() {
        assert!(Op::Add.result_sort(&[Sort::Int, Sort::Real], None).is_err());
        assert!(Op::Add
            .result_sort(&[Sort::Bool, Sort::Bool], None)
            .is_err());
        assert!(Op::Eq.result_sort(&[Sort::Int, Sort::Real], None).is_err());
        assert!(Op::BvAdd
            .result_sort(&[Sort::BitVec(8), Sort::BitVec(9)], None)
            .is_err());
        assert!(Op::Abs.result_sort(&[Sort::Real], None).is_err());
        assert!(Op::FpAdd
            .result_sort(
                &[Sort::Float(8, 24), Sort::Float(8, 24), Sort::Float(8, 24)],
                None
            )
            .is_err());
    }

    #[test]
    fn result_sorts() {
        assert_eq!(
            Op::Add.result_sort(&[Sort::Int, Sort::Int], None),
            Ok(Sort::Int)
        );
        assert_eq!(
            Op::Add.result_sort(&[Sort::Real, Sort::Real], None),
            Ok(Sort::Real)
        );
        assert_eq!(
            Op::Lt.result_sort(&[Sort::Int, Sort::Int], None),
            Ok(Sort::Bool)
        );
        assert_eq!(
            Op::BvMul.result_sort(&[Sort::BitVec(12), Sort::BitVec(12)], None),
            Ok(Sort::BitVec(12))
        );
        assert_eq!(
            Op::BvSmulo.result_sort(&[Sort::BitVec(12), Sort::BitVec(12)], None),
            Ok(Sort::Bool)
        );
        assert_eq!(
            Op::FpAdd.result_sort(
                &[Sort::RoundingMode, Sort::Float(8, 24), Sort::Float(8, 24)],
                None
            ),
            Ok(Sort::Float(8, 24))
        );
        assert_eq!(
            Op::BvSignExtend(4).result_sort(&[Sort::BitVec(8)], None),
            Ok(Sort::BitVec(12))
        );
        assert_eq!(
            Op::BvExtract(7, 4).result_sort(&[Sort::BitVec(12)], None),
            Ok(Sort::BitVec(4))
        );
        assert!(Op::BvExtract(12, 0)
            .result_sort(&[Sort::BitVec(12)], None)
            .is_err());
    }

    #[test]
    fn ite_branches() {
        assert_eq!(
            Op::Ite.result_sort(&[Sort::Bool, Sort::Int, Sort::Int], None),
            Ok(Sort::Int)
        );
        assert!(Op::Ite
            .result_sort(&[Sort::Bool, Sort::Int, Sort::Real], None)
            .is_err());
        assert!(Op::Ite
            .result_sort(&[Sort::Int, Sort::Int, Sort::Int], None)
            .is_err());
    }
}
