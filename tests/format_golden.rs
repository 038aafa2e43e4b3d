//! Golden lake-file images: the writer's bytes are pinned, not just its
//! round trip. Each case encodes `PacketGen` seed 1 rows and checks the
//! CRC32 and length of the whole image against values recorded before the
//! compressor and the row→column pivot were rewritten, so any change to a
//! chunk's encoding, its compressed tokens or the footer fails here.

use common::checksum::crc32;
use format::{LakeFileWriter, Row};
use workloads::packets::{Packet, PacketGen};

/// `(rows, rows_per_group, image length, image CRC32)`.
const GOLDEN: [(usize, usize, usize, u32); 4] = [
    (900, 4096, 1_001_229, 0xef9e_36ff),
    (31, 4096, 36_692, 0x3802_46d6),
    (1, 4096, 4_381, 0xb7fb_1dfc),
    (900, 128, 1_020_474, 0x8c7a_9350),
];

fn image(rows: usize, rows_per_group: usize) -> Vec<u8> {
    let rows: Vec<Row> = PacketGen::new(1, 1_656_806_400, 1)
        .batch(rows)
        .iter()
        .map(Packet::to_row)
        .collect();
    LakeFileWriter::new(PacketGen::schema(), rows_per_group)
        .unwrap()
        .encode(&rows)
        .unwrap()
}

#[test]
fn packet_images_are_byte_identical_to_the_recorded_ones() {
    for (rows, group, len, crc) in GOLDEN {
        let img = image(rows, group);
        assert_eq!((img.len(), crc32(&img)), (len, crc), "{rows} rows in groups of {group}");
    }
}
