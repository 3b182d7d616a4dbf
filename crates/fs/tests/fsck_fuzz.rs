//! Corruption fuzzing for fsck: smash arbitrary metadata blocks with
//! arbitrary bytes and require that fsck (a) never panics, (b) converges in
//! one repair pass, and (c) preserves every file it did not have to
//! sacrifice.

use bytes::Bytes;
use insider_fs::{fsck, BlockDev, FsConfig, MemDev, MiniExt, Superblock};
use proptest::prelude::*;

/// Builds a filesystem with a known corpus; returns the device and the
/// corpus contents.
fn populated() -> (MemDev, Vec<(String, Vec<u8>)>) {
    let mut fs = MiniExt::format(MemDev::new(512, 4096), &FsConfig { inode_count: 64 }).unwrap();
    let mut corpus = Vec::new();
    for i in 0..10 {
        let content: Vec<u8> = (0..(i + 1) * 3000).map(|k| (k % 251) as u8).collect();
        let name = format!("file{i}");
        fs.write_file(&name, &content).unwrap();
        corpus.push((name, content));
    }
    (fs.into_dev(), corpus)
}

#[derive(Debug, Clone)]
struct Smash {
    /// Metadata block to corrupt (1..=5 covers inode table + bitmap on this
    /// geometry; block 0 is the superblock, handled separately).
    block: u64,
    offset: usize,
    bytes: Vec<u8>,
}

fn smash_strategy() -> impl Strategy<Value = Smash> {
    (
        1u64..6,
        0usize..4000,
        prop::collection::vec(any::<u8>(), 1..64),
    )
        .prop_map(|(block, offset, bytes)| Smash {
            block,
            offset,
            bytes,
        })
}

/// Applies `smashes` to a populated filesystem, then requires fsck to
/// repair it in one pass and leave it mountable and writable.
fn smash_then_fsck(smashes: &[Smash]) -> TestCaseResult {
    let (mut dev, _corpus) = populated();
    for s in smashes {
        let mut raw = dev
            .read_block(s.block)
            .unwrap()
            .map(|b| b.to_vec())
            .unwrap_or_else(|| vec![0u8; 4096]);
        raw.resize(4096, 0);
        for (k, b) in s.bytes.iter().enumerate() {
            let at = (s.offset + k) % raw.len();
            raw[at] = *b;
        }
        dev.write_block(s.block, Bytes::from(raw)).unwrap();
    }

    let (_report, dev) = fsck(dev).expect("fsck must not error on garbage metadata");
    let (second, dev) = fsck(dev).unwrap();
    prop_assert!(second.is_clean(), "fsck must converge: {second}");

    // The repaired filesystem is mountable and fully usable.
    let mut fs = MiniExt::mount(dev).unwrap();
    fs.write_file("post-repair", b"still alive").unwrap();
    prop_assert_eq!(
        fs.read_file("post-repair").unwrap(),
        b"still alive".to_vec()
    );
    Ok(())
}

/// A recorded counterexample of
/// `fsck_converges_after_arbitrary_metadata_smash`: one run of zeros then
/// random bytes written into block 3 at offset 178.
#[test]
fn fsck_converges_after_recorded_block_3_smash() {
    let bytes = vec![
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 66, 171, 93, 67, 1, 247, 17, 159, 170,
        25, 235, 233, 194, 32, 77, 196, 19, 26, 136, 47, 29, 235, 201, 112, 71, 58, 165, 144, 92,
        158, 114, 126, 149, 217, 101, 186, 192, 142, 187, 78,
    ];
    let smash = Smash {
        block: 3,
        offset: 178,
        bytes,
    };
    smash_then_fsck(&[smash]).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary garbage in metadata blocks never panics fsck, and a second
    /// pass is always clean.
    #[test]
    fn fsck_converges_after_arbitrary_metadata_smash(
        smashes in prop::collection::vec(smash_strategy(), 1..6),
    ) {
        smash_then_fsck(&smashes)?;
    }

    /// Corrupting only the *bitmap* or *superblock counters* (not the inode
    /// table) must never lose file contents: those structures are fully
    /// redundant with the inode walk.
    #[test]
    fn redundant_metadata_corruption_never_loses_data(
        flips in prop::collection::vec((0usize..4096, any::<u8>()), 1..20),
        corrupt_free_count in any::<u64>(),
    ) {
        let (mut dev, corpus) = populated();
        // Find the bitmap block from the superblock.
        let sb = Superblock::decode(dev.read_block(0).unwrap().as_ref()).unwrap();
        let mut raw = dev
            .read_block(sb.bitmap_start)
            .unwrap()
            .map(|b| b.to_vec())
            .unwrap_or_else(|| vec![0u8; 4096]);
        raw.resize(4096, 0);
        for (at, b) in &flips {
            raw[*at] = *b;
        }
        dev.write_block(sb.bitmap_start, Bytes::from(raw)).unwrap();
        // And lie in the superblock's free counter.
        let mut sb2 = sb;
        sb2.free_blocks = corrupt_free_count % (sb.data_blocks() + 1);
        dev.write_block(0, sb2.encode()).unwrap();

        let (_report, dev) = fsck(dev).unwrap();
        let (second, dev) = fsck(dev).unwrap();
        prop_assert!(second.is_clean());

        let mut fs = MiniExt::mount(dev).unwrap();
        for (name, content) in &corpus {
            prop_assert_eq!(
                &fs.read_file(name).unwrap(),
                content,
                "{} must survive redundant-metadata corruption",
                name
            );
        }
    }
}
