//! Binary model serialization.
//!
//! A minimal, dependency-free format so experiment binaries can cache
//! trained models instead of re-training on every run:
//!
//! ```text
//! magic "NORA"  | u32 version | 6 × u64 ModelConfig fields
//! f64 first_loss | f64 final_loss
//! per parameter (fixed traversal order): u32 rows | u32 cols | f32 data (LE)
//! ```
//!
//! The parameter traversal order is the one defined by
//! [`TransformerLm::params`], which is stable across versions of this crate
//! (embedding → blocks in order → final LN → head).

use crate::model::{ModelConfig, TransformerLm};
use nora_tensor::Matrix;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"NORA";
const VERSION: u32 = 1;

/// Metadata stored alongside the parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SavedMeta {
    /// First-step training loss at save time.
    pub first_loss: f64,
    /// Final-step training loss at save time.
    pub final_loss: f64,
}

/// Writes `model` to `w`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn save(model: &TransformerLm, meta: SavedMeta, mut w: impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    let c = model.config();
    for v in [c.vocab, c.max_seq, c.d_model, c.heads, c.d_ff, c.layers] {
        w.write_all(&(v as u64).to_le_bytes())?;
    }
    w.write_all(&meta.first_loss.to_le_bytes())?;
    w.write_all(&meta.final_loss.to_le_bytes())?;
    for p in model.params() {
        let m = &p.value;
        w.write_all(&(m.rows() as u32).to_le_bytes())?;
        w.write_all(&(m.cols() as u32).to_le_bytes())?;
        for &v in m.as_slice() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Reads the next `N` bytes; a file that ends first is `InvalidData`.
fn read_array<const N: usize>(r: &mut impl Read) -> io::Result<[u8; N]> {
    let mut b = [0u8; N];
    r.read_exact(&mut b).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => invalid("truncated model file"),
        _ => e,
    })?;
    Ok(b)
}

/// Reads a model back from `r`.
///
/// The header's sizes come from outside the program, so nothing is
/// allocated for them up front: each tensor's shape is checked against the
/// one the header implies before its bytes are read, and its buffer grows
/// only as bytes arrive. No random number is drawn; the model is assembled
/// from the file's tensors.
///
/// # Errors
///
/// Returns `InvalidData` if the magic, version, configuration or any shape
/// disagrees with the expectations of this build, or if the file ends
/// early, and propagates reader I/O errors.
pub fn load(mut r: impl Read) -> io::Result<(TransformerLm, SavedMeta)> {
    if &read_array::<4>(&mut r)? != MAGIC {
        return Err(invalid("not a NORA model file"));
    }
    if u32::from_le_bytes(read_array(&mut r)?) != VERSION {
        return Err(invalid("unsupported model file version"));
    }
    let mut dims = [0usize; 6];
    for d in &mut dims {
        *d = usize::try_from(u64::from_le_bytes(read_array(&mut r)?))
            .map_err(|_| invalid("model dimension exceeds the address space"))?;
    }
    let [vocab, max_seq, d_model, heads, d_ff, layers] = dims;
    let config = ModelConfig {
        vocab,
        max_seq,
        d_model,
        heads,
        d_ff,
        layers,
    };
    config.validate().map_err(|e| invalid(&e))?;
    let meta = SavedMeta {
        first_loss: f64::from_le_bytes(read_array(&mut r)?),
        final_loss: f64::from_le_bytes(read_array(&mut r)?),
    };

    let mut bytes = Vec::new();
    let model = TransformerLm::from_values(config, |rows, cols| {
        let file_rows = u32::from_le_bytes(read_array(&mut r)?);
        let file_cols = u32::from_le_bytes(read_array(&mut r)?);
        if (file_rows as usize, file_cols as usize) != (rows, cols) {
            return Err(invalid("parameter shape mismatch"));
        }
        let len = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| invalid("parameter size overflows the address space"))?;
        bytes.clear();
        (&mut r).take(len as u64).read_to_end(&mut bytes)?;
        if bytes.len() != len {
            return Err(invalid("truncated model file"));
        }
        let data = bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        Ok(Matrix::from_vec(rows, cols, data))
    })?;
    Ok((model, meta))
}

/// Saves to a file path (creating parent directories).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_to_path(
    model: &TransformerLm,
    meta: SavedMeta,
    path: impl AsRef<Path>,
) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let file = std::fs::File::create(path)?;
    save(model, meta, io::BufWriter::new(file))
}

/// Loads from a file path.
///
/// # Errors
///
/// Propagates filesystem errors and format errors from [`load`].
pub fn load_from_path(path: impl AsRef<Path>) -> io::Result<(TransformerLm, SavedMeta)> {
    let file = std::fs::File::open(path)?;
    load(io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nora_tensor::rng::Rng;

    /// A file holding only the magic, version, `dims` (vocab, max_seq,
    /// d_model, heads, d_ff, layers) and the two losses.
    fn header(dims: [u64; 6]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        for d in dims {
            buf.extend_from_slice(&d.to_le_bytes());
        }
        buf.extend_from_slice(&1.0f64.to_le_bytes());
        buf.extend_from_slice(&0.5f64.to_le_bytes());
        buf
    }

    /// Loads `file`, expecting `InvalidData` whose message contains `why`.
    /// The headers below claim tensors of 128 GiB and more: a load that
    /// allocated what they claim would abort the test process instead of
    /// returning.
    fn assert_rejected(file: &[u8], why: &str) {
        let err = load(file).expect_err("a malformed header must not load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(why), "{err}");
    }

    #[test]
    fn round_trip_preserves_model_exactly() {
        let mut rng = Rng::seed_from(5);
        let model = TransformerLm::new(ModelConfig::tiny_for_tests(), &mut rng);
        let meta = SavedMeta {
            first_loss: 2.5,
            final_loss: 0.75,
        };
        let mut buf = Vec::new();
        save(&model, meta, &mut buf).unwrap();
        let (loaded, got_meta) = load(buf.as_slice()).unwrap();
        assert_eq!(got_meta, meta);
        assert_eq!(loaded.config(), model.config());
        let bits = |m: &TransformerLm| -> Vec<((usize, usize), Vec<u32>)> {
            m.params()
                .iter()
                .map(|p| {
                    let v = &p.value;
                    (
                        v.shape(),
                        v.as_slice().iter().map(|x| x.to_bits()).collect(),
                    )
                })
                .collect()
        };
        assert_eq!(bits(&loaded), bits(&model));
        let tokens = [1usize, 3, 5, 7];
        assert_eq!(model.forward(&tokens), loaded.forward(&tokens));
    }

    #[test]
    fn oversized_header_is_invalid_data() {
        // vocab = 2^40 with otherwise valid fields: the token table alone
        // would be 2^40 × 16 floats, and no tensor follows.
        assert_rejected(&header([1 << 40, 16, 16, 2, 32, 1]), "truncated");
        // Even with a tensor header, a u32 row count cannot match 2^40.
        let mut file = header([1 << 40, 16, 16, 2, 32, 1]);
        file.extend_from_slice(&u32::MAX.to_le_bytes());
        file.extend_from_slice(&16u32.to_le_bytes());
        assert_rejected(&file, "shape mismatch");
    }

    #[test]
    fn dims_whose_product_overflows_are_invalid_data() {
        // 2^40 × 2^40 overflows usize; no u32 shape can claim it.
        let mut file = header([1 << 40, 16, 1 << 40, 1, 32, 1]);
        file.extend_from_slice(&u32::MAX.to_le_bytes());
        file.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_rejected(&file, "shape mismatch");
        // (2^32 − 1)² elements fit in usize, but their bytes do not.
        let max = u64::from(u32::MAX);
        let mut file = header([max, 16, max, 1, 32, 1]);
        file.extend_from_slice(&u32::MAX.to_le_bytes());
        file.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_rejected(&file, "overflows");
    }

    #[test]
    fn huge_vocab_without_tensor_bytes_is_invalid_data() {
        // The token table's header claims 2^31 × 16 floats (128 GiB) and
        // no byte of them follows.
        let mut file = header([1 << 31, 16, 16, 2, 32, 1]);
        file.extend_from_slice(&(1u32 << 31).to_le_bytes());
        file.extend_from_slice(&16u32.to_le_bytes());
        assert_rejected(&file, "truncated");
        // A few bytes arrive, then the file ends.
        file.extend_from_slice(&[0u8; 64]);
        assert_rejected(&file, "truncated");
    }

    #[test]
    fn rejects_wrong_magic_and_truncation() {
        assert!(load(&b"XXXX0000"[..]).is_err());
        let mut rng = Rng::seed_from(6);
        let model = TransformerLm::new(ModelConfig::tiny_for_tests(), &mut rng);
        let mut buf = Vec::new();
        save(
            &model,
            SavedMeta {
                first_loss: 0.0,
                final_loss: 0.0,
            },
            &mut buf,
        )
        .unwrap();
        buf.truncate(buf.len() / 2);
        assert!(load(buf.as_slice()).is_err());
    }

    #[test]
    fn file_round_trip() {
        let mut rng = Rng::seed_from(7);
        let model = TransformerLm::new(ModelConfig::tiny_for_tests(), &mut rng);
        let dir = std::env::temp_dir().join("nora-serialize-test");
        let path = dir.join("model.nora");
        save_to_path(
            &model,
            SavedMeta {
                first_loss: 1.0,
                final_loss: 0.5,
            },
            &path,
        )
        .unwrap();
        let (loaded, _) = load_from_path(&path).unwrap();
        assert_eq!(model.forward(&[2, 4, 6]), loaded.forward(&[2, 4, 6]));
        std::fs::remove_dir_all(&dir).ok();
    }
}
