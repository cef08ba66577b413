//! The POMTRC1 record encoding: one memory reference in 22 bytes.
//!
//! [`crate::SharedTrace`] stores its recorded references in this encoding
//! (little-endian):
//!
//! ```text
//! record { icount u64, addr u64, vm u16, pid u16, kind u8, pad u8 }
//! ```

use std::io;

use pomtlb_types::{AccessKind, AddressSpace, Gva, ProcessId, VmId};

use crate::record::MemoryRef;

pub(crate) const RECORD_BYTES: usize = 22;

pub(crate) fn encode_record(r: &MemoryRef, buf: &mut [u8; RECORD_BYTES]) {
    buf[0..8].copy_from_slice(&r.icount.to_le_bytes());
    buf[8..16].copy_from_slice(&r.addr.raw().to_le_bytes());
    buf[16..18].copy_from_slice(&r.space.vm.0.to_le_bytes());
    buf[18..20].copy_from_slice(&r.space.process.0.to_le_bytes());
    buf[20] = match r.kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    };
    buf[21] = 0;
}

pub(crate) fn decode_record(buf: &[u8; RECORD_BYTES]) -> io::Result<MemoryRef> {
    let icount = u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes"));
    let addr = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    let vm = u16::from_le_bytes(buf[16..18].try_into().expect("2 bytes"));
    let pid = u16::from_le_bytes(buf[18..20].try_into().expect("2 bytes"));
    let kind = match buf[20] {
        0 => AccessKind::Read,
        1 => AccessKind::Write,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("invalid access kind byte {other}"),
            ))
        }
    };
    Ok(MemoryRef::new(
        icount,
        Gva::new(addr),
        kind,
        AddressSpace::new(VmId(vm), ProcessId(pid)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{LocalityModel, WorkloadSpec};
    use crate::TraceGenerator;

    fn sample(n: usize) -> Vec<MemoryRef> {
        let spec = WorkloadSpec::builder("file-test")
            .footprint_bytes(8 << 20)
            .large_page_frac(0.3)
            .locality(LocalityModel::UniformRandom)
            .build();
        TraceGenerator::new(&spec, 7).take(n).collect()
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let mut buf = [0u8; RECORD_BYTES];
        for r in sample(500) {
            encode_record(&r, &mut buf);
            assert_eq!(decode_record(&buf).unwrap(), r);
        }
    }

    #[test]
    fn rejects_corrupt_kind_byte() {
        let mut buf = [0u8; RECORD_BYTES];
        encode_record(&sample(1)[0], &mut buf);
        buf[20] = 9;
        assert_eq!(decode_record(&buf).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }
}
