//! Owned point type.
//!
//! Most of the workspace operates on borrowed coordinate slices (`&[f64]`)
//! backed by the flat storage of a [`crate::Dataset`]; [`Point`] is the owned
//! counterpart used at API boundaries (e.g. cluster representatives that are
//! shipped between sites).

use std::fmt;

/// An owned point in a `d`-dimensional real vector space.
///
/// Coordinates are stored in a boxed slice so the type is two words plus the
/// heap payload and cheap to move. Equality is exact bitwise `f64` equality,
/// which is appropriate here because points are only compared for identity
/// (they are never the result of arithmetic).
#[derive(Clone, PartialEq)]
pub struct Point {
    coords: Box<[f64]>,
}

impl Point {
    /// Creates a point from a coordinate vector.
    ///
    /// # Panics
    /// Panics if `coords` is empty or contains a non-finite value: the
    /// clustering algorithms in this workspace assume finite coordinates.
    pub fn new(coords: Vec<f64>) -> Self {
        assert!(!coords.is_empty(), "a point must have at least 1 dimension");
        assert!(
            coords.iter().all(|c| c.is_finite()),
            "point coordinates must be finite"
        );
        Self {
            coords: coords.into_boxed_slice(),
        }
    }

    /// Convenience constructor for 2-dimensional points (the paper's
    /// evaluation uses 2-d data throughout).
    pub fn xy(x: f64, y: f64) -> Self {
        Self::new(vec![x, y])
    }

    /// The dimensionality of the point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// The coordinates as a slice.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Consumes the point and returns its coordinates.
    pub fn into_coords(self) -> Vec<f64> {
        self.coords.into_vec()
    }
}

impl std::ops::Index<usize> for Point {
    type Output = f64;

    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.coords[i]
    }
}

impl From<Vec<f64>> for Point {
    fn from(v: Vec<f64>) -> Self {
        Self::new(v)
    }
}

impl From<&[f64]> for Point {
    fn from(v: &[f64]) -> Self {
        Self::new(v.to_vec())
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructs_and_indexes() {
        let p = Point::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(p.dim(), 3);
        assert_eq!(p[0], 1.0);
        assert_eq!(p[2], 3.0);
        assert_eq!(p.coords(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn xy_constructor() {
        let p = Point::xy(4.0, -1.5);
        assert_eq!(p.dim(), 2);
        assert_eq!(p.coords(), &[4.0, -1.5]);
    }

    #[test]
    #[should_panic(expected = "at least 1 dimension")]
    fn rejects_empty() {
        let _ = Point::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        let _ = Point::new(vec![1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_infinity() {
        let _ = Point::new(vec![f64::INFINITY]);
    }

    #[test]
    fn round_trips_through_into_coords() {
        let p = Point::new(vec![0.5, 0.25]);
        assert_eq!(p.clone().into_coords(), vec![0.5, 0.25]);
    }

    #[test]
    fn equality_is_exact() {
        assert_eq!(Point::xy(1.0, 2.0), Point::xy(1.0, 2.0));
        assert_ne!(Point::xy(1.0, 2.0), Point::xy(1.0, 2.0 + 1e-12));
    }

    #[test]
    fn debug_formats_coordinates() {
        assert_eq!(format!("{:?}", Point::xy(1.0, 2.5)), "Point(1, 2.5)");
    }
}
