//! The scalar value domain of executing GraphIR programs.

use std::fmt;

use ugc_graphir::types::{BinOp, Type, UnOp};

/// A runtime scalar value. Vertices are represented as `Int` (with `-1`
/// conventionally meaning "none"), matching GraphIt semantics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 64-bit integer (also vertex ids).
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The zero/identity value for a GraphIR type.
    pub fn zero_of(ty: Type) -> Value {
        match ty {
            Type::Float => Value::Float(0.0),
            Type::Bool => Value::Bool(false),
            _ => Value::Int(0),
        }
    }

    /// Interprets as integer.
    ///
    /// # Panics
    ///
    /// Panics when the value is a float (programs never implicitly narrow).
    #[inline]
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Bool(b) => b as i64,
            Value::Float(v) => panic!("expected int value, found float {v}"),
        }
    }

    /// Interprets as float (ints widen).
    #[inline]
    pub fn as_float(self) -> f64 {
        match self {
            Value::Float(v) => v,
            Value::Int(v) => v as f64,
            Value::Bool(b) => b as u8 as f64,
        }
    }

    /// Interprets as boolean.
    ///
    /// # Panics
    ///
    /// Panics when the value is not a boolean or integer.
    #[inline]
    pub fn as_bool(self) -> bool {
        match self {
            Value::Bool(b) => b,
            Value::Int(v) => v != 0,
            Value::Float(v) => panic!("expected bool value, found float {v}"),
        }
    }

    /// Bit-encodes into a `u64` cell for atomic storage.
    #[inline]
    pub fn to_bits(self, ty: Type) -> u64 {
        match ty {
            Type::Float => self.as_float().to_bits(),
            Type::Bool => self.as_bool() as u64,
            _ => self.as_int() as u64,
        }
    }

    /// Decodes from a `u64` cell.
    #[inline]
    pub fn from_bits(bits: u64, ty: Type) -> Value {
        match ty {
            Type::Float => Value::Float(f64::from_bits(bits)),
            Type::Bool => Value::Bool(bits != 0),
            _ => Value::Int(bits as i64),
        }
    }

    /// Applies a binary operator. Mixed int/float promotes to float.
    ///
    /// # Panics
    ///
    /// Panics on division/modulo by zero for integers (as C++ would trap),
    /// and on boolean operands to arithmetic operators.
    #[inline]
    pub fn bin(op: BinOp, a: Value, b: Value) -> Value {
        use BinOp::*;
        let both_int = matches!(a, Value::Int(_) | Value::Bool(_))
            && matches!(b, Value::Int(_) | Value::Bool(_));
        match op {
            And => Value::Bool(a.as_bool() && b.as_bool()),
            Or => Value::Bool(a.as_bool() || b.as_bool()),
            Eq | Ne | Lt | Le | Gt | Ge => {
                let r = if both_int {
                    let (x, y) = (a.as_int(), b.as_int());
                    match op {
                        Eq => x == y,
                        Ne => x != y,
                        Lt => x < y,
                        Le => x <= y,
                        Gt => x > y,
                        Ge => x >= y,
                        _ => unreachable!(),
                    }
                } else {
                    let (x, y) = (a.as_float(), b.as_float());
                    match op {
                        Eq => x == y,
                        Ne => x != y,
                        Lt => x < y,
                        Le => x <= y,
                        Gt => x > y,
                        Ge => x >= y,
                        _ => unreachable!(),
                    }
                };
                Value::Bool(r)
            }
            Add | Sub | Mul | Div | Mod => {
                if both_int {
                    let (x, y) = (a.as_int(), b.as_int());
                    Value::Int(match op {
                        Add => x.wrapping_add(y),
                        Sub => x.wrapping_sub(y),
                        Mul => x.wrapping_mul(y),
                        Div => x / y,
                        Mod => x % y,
                        _ => unreachable!(),
                    })
                } else {
                    let (x, y) = (a.as_float(), b.as_float());
                    Value::Float(match op {
                        Add => x + y,
                        Sub => x - y,
                        Mul => x * y,
                        Div => x / y,
                        Mod => x % y,
                        _ => unreachable!(),
                    })
                }
            }
        }
    }

    /// Applies a unary operator.
    pub fn un(op: UnOp, a: Value) -> Value {
        match op {
            UnOp::Neg => match a {
                Value::Float(v) => Value::Float(-v),
                other => Value::Int(-other.as_int()),
            },
            UnOp::Not => Value::Bool(!a.as_bool()),
            UnOp::ToFloat => Value::Float(a.as_float()),
            UnOp::ToInt => Value::Int(match a {
                Value::Float(v) => v as i64,
                other => other.as_int(),
            }),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_arithmetic() {
        assert_eq!(Value::bin(BinOp::Add, 2.into(), 3.into()), Value::Int(5));
        assert_eq!(Value::bin(BinOp::Mod, 7.into(), 4.into()), Value::Int(3));
    }

    #[test]
    fn mixed_promotes_to_float() {
        assert_eq!(
            Value::bin(BinOp::Mul, 2.into(), Value::Float(0.5)),
            Value::Float(1.0)
        );
    }

    #[test]
    fn comparisons() {
        assert_eq!(Value::bin(BinOp::Lt, 1.into(), 2.into()), Value::Bool(true));
        assert_eq!(
            Value::bin(BinOp::Eq, Value::Float(1.0), 1.into()),
            Value::Bool(true)
        );
    }

    #[test]
    fn bool_ops() {
        assert_eq!(
            Value::bin(BinOp::And, true.into(), false.into()),
            Value::Bool(false)
        );
        assert_eq!(Value::un(UnOp::Not, false.into()), Value::Bool(true));
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::un(UnOp::ToFloat, 3.into()), Value::Float(3.0));
        assert_eq!(Value::un(UnOp::ToInt, Value::Float(3.9)), Value::Int(3));
    }

    #[test]
    fn bits_round_trip() {
        for (v, ty) in [
            (Value::Int(-7), Type::Int),
            (Value::Float(0.25), Type::Float),
            (Value::Bool(true), Type::Bool),
            (Value::Int(42), Type::Vertex),
        ] {
            assert_eq!(Value::from_bits(v.to_bits(ty), ty), v);
        }
    }

    #[test]
    fn zero_values() {
        assert_eq!(Value::zero_of(Type::Float), Value::Float(0.0));
        assert_eq!(Value::zero_of(Type::Vertex), Value::Int(0));
        assert_eq!(Value::zero_of(Type::Bool), Value::Bool(false));
    }

    #[test]
    #[should_panic(expected = "expected int")]
    fn float_does_not_silently_narrow() {
        let _ = Value::Float(1.5).as_int();
    }
}
