//! dcert-lint fixture (r8, head region): a head slot rewritten in place
//! shrinks its own file before the data flush. Exempt when analyzed as
//! `crates/store/src/head.rs`; anywhere else in the store it is a
//! truncate before the head commit.

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;

pub struct SlotFile {
    file: File,
    len: u64,
}

impl SlotFile {
    pub fn rewrite(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all_at(bytes, 0)?;
        let len = bytes.len() as u64;
        if len < self.len {
            self.file.set_len(len)?;
        }
        self.len = len;
        self.file.sync_data()
    }
}
