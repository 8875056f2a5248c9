//! Single-bit manipulation and bitstring conversions.
//!
//! Computational basis states are stored as `u64` words (qubit `i` ↔ bit `i`), which is
//! what the simulator and cost-function pre-computation iterate over.  Cost functions in
//! the public API, mirroring JuliQAOA's Julia interface, also accept explicit `&[u8]`
//! 0/1 arrays; the converters here bridge the two representations.

/// Returns bit `i` of `x` as `0u8` or `1u8`.
#[inline]
pub fn bit_u8(x: u64, i: usize) -> u8 {
    ((x >> i) & 1) as u8
}

/// Parity of the number of set bits: `+1.0` for even, `-1.0` for odd.
///
/// This is the eigenvalue of a product of Pauli-Z operators on the qubits selected by
/// the mask, used when diagonalising Pauli-X mixers in the Hadamard basis.
#[inline]
pub fn parity_sign(x: u64) -> f64 {
    if x.count_ones().is_multiple_of(2) {
        1.0
    } else {
        -1.0
    }
}

/// Converts the low `n` bits of `x` into a 0/1 array, least-significant bit first.
pub fn to_bit_array(x: u64, n: usize) -> Vec<u8> {
    (0..n).map(|i| bit_u8(x, i)).collect()
}

/// Converts a 0/1 array (LSB first) into an integer.
///
/// # Panics
/// Panics if the array is longer than 64 bits or contains values other than 0/1.
pub fn from_bit_array(bits: &[u8]) -> u64 {
    assert!(
        bits.len() <= 64,
        "bitstrings longer than 64 qubits are not supported"
    );
    let mut x = 0u64;
    for (i, &b) in bits.iter().enumerate() {
        match b {
            0 => {}
            1 => x |= 1u64 << i,
            _ => panic!("bit arrays must contain only 0 and 1, found {b}"),
        }
    }
    x
}

/// All `2ⁿ` computational basis states `0..2ⁿ`, as an iterator.
///
/// The analogue of JuliQAOA's `states(n)`.
pub fn all_states(n: usize) -> impl Iterator<Item = u64> {
    assert!(n < 64, "full-space enumeration limited to n < 64 qubits");
    0..(1u64 << n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_clear_flip() {
        let x = 0b1010u64;
        assert_eq!(bit_u8(x, 1), 1);
        assert_eq!(bit_u8(x, 2), 0);
    }

    #[test]
    fn weight_and_parity() {
        assert_eq!(parity_sign(0b1011), -1.0);
        assert_eq!(parity_sign(0b1001), 1.0);
        assert_eq!(parity_sign(0), 1.0);
    }

    #[test]
    fn bit_array_roundtrip() {
        for x in [0u64, 1, 5, 0b11010, 0b101010101] {
            let bits = to_bit_array(x, 12);
            assert_eq!(bits.len(), 12);
            assert_eq!(from_bit_array(&bits), x);
        }
    }

    #[test]
    fn bit_array_is_lsb_first() {
        assert_eq!(to_bit_array(0b01, 2), vec![1, 0]);
        assert_eq!(to_bit_array(0b10, 2), vec![0, 1]);
        assert_eq!(from_bit_array(&[1, 0, 0]), 1);
        assert_eq!(from_bit_array(&[0, 0, 1]), 4);
    }

    #[test]
    fn all_states_counts() {
        assert_eq!(all_states(0).count(), 1);
        assert_eq!(all_states(3).count(), 8);
        let v: Vec<u64> = all_states(2).collect();
        assert_eq!(v, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic]
    fn invalid_bit_array_panics() {
        let _ = from_bit_array(&[0, 2, 1]);
    }
}
