//! Little-endian `f64` serialization for the baselines' container headers.

use crate::{CodecError, Result};

/// Append an `f64` in little-endian IEEE-754 order.
pub fn write_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read an `f64` at `*pos`, advancing it.
pub fn read_f64(buf: &[u8], pos: &mut usize) -> Result<f64> {
    let bytes: [u8; 8] = buf
        .get(*pos..pos.saturating_add(8))
        .ok_or(CodecError::UnexpectedEof)?
        .try_into()
        .expect("slice length checked");
    *pos += 8;
    Ok(f64::from_le_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut buf = Vec::new();
        write_f64(&mut buf, -1234.5678e-9);
        write_f64(&mut buf, f64::MAX);
        let mut pos = 0;
        assert_eq!(read_f64(&buf, &mut pos).unwrap(), -1234.5678e-9);
        assert_eq!(read_f64(&buf, &mut pos).unwrap(), f64::MAX);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_scalar_errors() {
        let buf = vec![1u8; 7];
        let mut pos = 0;
        assert_eq!(read_f64(&buf, &mut pos), Err(CodecError::UnexpectedEof));
        assert_eq!(pos, 0);
    }
}
