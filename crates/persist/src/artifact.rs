//! Versioned artifact container and registry-directory listing.
//!
//! A *psmgen artifact* is a model file written by the facade's
//! `TrainedModel::save` / `HierarchicalModel::save`: a one-line magic +
//! format-version header followed by the canonical JSON body.
//!
//! ```text
//! psmgen-artifact/v2
//! {"table":…,"psm":…,"hmm":…,"stats":…}
//! ```
//!
//! Format history:
//!
//! * **v1** (PR 1): the bare canonical JSON document, no header. Still
//!   accepted on load — [`split_artifact`] treats any text whose first
//!   non-whitespace byte opens a JSON value as a v1 artifact.
//! * **v2**: the header line above. The header lets consumers (the `psmd`
//!   model registry in particular) probe a file's format version without
//!   parsing — and possibly downloading — the whole body, and lets future
//!   format changes fail with a *structured* "unsupported version" error
//!   instead of a JSON parse error deep inside the body.
//! * **v3** (read-only legacy): the v2 body plus a `"compiled"` field in
//!   which earlier builds shipped the flat-table serving form of the model
//!   (`psm-compile`'s `CompiledModel`). This build writes v2
//!   only and still reads v3, ignoring the `"compiled"` field whatever it
//!   holds: every consumer compiles the model from its `psm` and `hmm` at
//!   load, so a v3 file serves exactly what its v2 body serves.
//!
//! Within v2 the body's PSM states changed shape once. A state now holds
//! each distinct assertion chain once, with its count:
//!
//! ```text
//! {"alternatives":[{"chain":[…],"count":3},{"chain":[…],"count":1}],"windows":…}
//! ```
//!
//! Files written before list every copy of a chain under `"chains"`;
//! readers still accept that key and fold the copies into counts by first
//! occurrence, the state `join` builds from the same copies, so a legacy
//! file loads to the same model and serves the same estimates. The format
//! version stays 2: an older reader fails on a newer file with
//! `missing field "chains"` instead of building a different model.
//!
//! Truncated, empty or wrong-magic files always surface as
//! [`PersistError`] values, never as panics; the facade wraps them in
//! `FlowError::Persistence`.
//!
//! The second half of this module is the **registry listing** used by the
//! `psmd` daemon: a registry is a flat directory of artifacts named
//! `<model>@<version>.json` (a bare `<model>.json` is version 1), and
//! [`list_artifacts`] enumerates them deterministically with their probed
//! format versions.

use crate::{JsonValue, PersistError};
use std::io::Read;
use std::path::{Path, PathBuf};

/// The artifact magic, first bytes of every headered model file.
pub const ARTIFACT_MAGIC: &str = "psmgen-artifact";

/// The artifact format version this build writes.
pub const ARTIFACT_VERSION: u32 = 2;

/// The newest artifact format version this build reads. Version 3 is a
/// v2 body plus a `"compiled"` field, which readers ignore; nothing
/// writes it any more.
pub const ARTIFACT_VERSION_MAX: u32 = 3;

/// How many bytes of a file [`probe_file_version`] reads: enough for the
/// longest valid header line.
const PROBE_BYTES: usize = 64;

/// Wraps a rendered JSON body in the artifact container:
/// `psmgen-artifact/v2\n` + body + trailing newline.
pub fn encode_artifact(body: &JsonValue) -> String {
    format!("{ARTIFACT_MAGIC}/v{ARTIFACT_VERSION}\n{}\n", body.render())
}

/// Splits an artifact into its format version and JSON body text.
///
/// Headerless text whose first non-whitespace byte opens a JSON value is
/// accepted as format version 1 (a PR 1-era file).
///
/// # Errors
///
/// * empty / all-whitespace input — truncated artifact;
/// * a header with a version this build does not support;
/// * anything else — wrong magic (not a psmgen artifact at all).
pub fn split_artifact(text: &str) -> Result<(u32, &str), PersistError> {
    let trimmed = text.trim_start();
    if trimmed.is_empty() {
        return Err(PersistError::schema(
            "truncated artifact: the file is empty",
        ));
    }
    if let Some(rest) = trimmed.strip_prefix(ARTIFACT_MAGIC) {
        let rest = rest.strip_prefix("/v").ok_or_else(|| {
            PersistError::schema(format!(
                "malformed artifact header: expected `{ARTIFACT_MAGIC}/v<N>`"
            ))
        })?;
        let (digits, body) = match rest.find('\n') {
            Some(eol) => (&rest[..eol], &rest[eol + 1..]),
            None => {
                return Err(PersistError::schema(
                    "truncated artifact: header line has no body after it",
                ))
            }
        };
        let version: u32 = digits
            .trim()
            .parse()
            .map_err(|_| PersistError::schema(format!("malformed artifact version {digits:?}")))?;
        if version == 0 || version > ARTIFACT_VERSION_MAX {
            return Err(PersistError::schema(format!(
                "unsupported artifact format version {version} \
                 (this build reads v1..=v{ARTIFACT_VERSION_MAX})"
            )));
        }
        if body.trim().is_empty() {
            return Err(PersistError::schema(
                "truncated artifact: header line has no body after it",
            ));
        }
        return Ok((version, body));
    }
    // v1 legacy: a bare JSON document.
    if trimmed.starts_with('{') || trimmed.starts_with('[') {
        return Ok((1, text));
    }
    Err(PersistError::schema(format!(
        "wrong magic: not a psmgen artifact (expected `{ARTIFACT_MAGIC}/v<N>` or a JSON body)"
    )))
}

/// Splits and parses an artifact, returning its format version and body.
///
/// # Errors
///
/// The [`split_artifact`] failures, plus [`PersistError::Parse`] when the
/// body is not well-formed JSON (a truncated v1/v2 body lands here).
pub fn decode_artifact(text: &str) -> Result<(u32, JsonValue), PersistError> {
    let (version, body) = split_artifact(text)?;
    Ok((version, JsonValue::parse(body)?))
}

/// The format version an artifact's first bytes declare, without parsing
/// the body. `head` need only contain the first `PROBE_BYTES` (64) bytes.
///
/// # Errors
///
/// Same conditions as [`split_artifact`], except that a missing body is
/// tolerated (the probe may have cut the text mid-body).
pub fn probe_version(head: &str) -> Result<u32, PersistError> {
    let trimmed = head.trim_start();
    if trimmed.is_empty() {
        return Err(PersistError::schema(
            "truncated artifact: the file is empty",
        ));
    }
    if trimmed.starts_with('{') || trimmed.starts_with('[') {
        return Ok(1);
    }
    // Delegate header parsing; append a dummy body so a probe that only
    // captured the header line is not mistaken for a truncated file.
    let line = trimmed.lines().next().unwrap_or(trimmed);
    split_artifact(&format!("{line}\n0")).map(|(version, _)| version)
}

/// Probes the artifact format version of a file by reading its first
/// bytes only.
///
/// # Errors
///
/// [`PersistError::Io`] when the file cannot be read, otherwise the
/// [`probe_version`] conditions.
pub fn probe_file_version(path: &Path) -> Result<u32, PersistError> {
    let mut file = std::fs::File::open(path).map_err(PersistError::Io)?;
    let mut buf = [0u8; PROBE_BYTES];
    let mut filled = 0;
    while filled < buf.len() {
        match file.read(&mut buf[filled..]).map_err(PersistError::Io)? {
            0 => break,
            n => filled += n,
        }
    }
    let head = String::from_utf8_lossy(&buf[..filled]);
    probe_version(&head)
}

/// One artifact found in a registry directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactEntry {
    /// The model name (file stem up to the `@`).
    pub name: String,
    /// The model version (`@<N>` suffix; bare stems are version 1).
    pub version: u64,
    /// The artifact file.
    pub path: PathBuf,
    /// The probed artifact *format* version (1 = headerless PR 1 file).
    pub format_version: u32,
}

/// Lists the artifacts of a registry directory, sorted by name then
/// version.
///
/// A registry is a flat directory of `*.json` files named
/// `<model>@<version>.json`; a stem without a parseable `@<version>`
/// suffix is taken whole as the model name at version 1. Subdirectories
/// and non-`.json` files are ignored. Each entry's artifact format
/// version is probed from its first bytes, so a wrong-magic file fails
/// the listing with a structured error naming the file.
///
/// # Errors
///
/// [`PersistError::Io`] when the directory or a file cannot be read;
/// [`PersistError::Schema`] when a file is not a psmgen artifact.
pub fn list_artifacts(dir: &Path) -> Result<Vec<ArtifactEntry>, PersistError> {
    let mut entries = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(PersistError::Io)? {
        let entry = entry.map_err(PersistError::Io)?;
        let path = entry.path();
        if !path.is_file() || path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        let (name, version) = match stem.rsplit_once('@') {
            Some((name, digits)) if !name.is_empty() => match digits.parse::<u64>() {
                Ok(version) => (name.to_owned(), version),
                Err(_) => (stem.to_owned(), 1),
            },
            _ => (stem.to_owned(), 1),
        };
        let format_version = probe_file_version(&path).map_err(|e| match e {
            PersistError::Schema(msg) => PersistError::schema(format!("{}: {msg}", path.display())),
            other => other,
        })?;
        entries.push(ArtifactEntry {
            name,
            version,
            path,
            format_version,
        });
    }
    entries.sort_by(|a, b| (a.name.as_str(), a.version).cmp(&(b.name.as_str(), b.version)));
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_through_the_container() {
        let body = JsonValue::obj([("x", JsonValue::from(1u64))]);
        let text = encode_artifact(&body);
        assert!(text.starts_with("psmgen-artifact/v2\n"));
        let (version, back) = decode_artifact(&text).unwrap();
        assert_eq!(version, ARTIFACT_VERSION);
        assert_eq!(back, body);
    }

    #[test]
    fn v3_header_decodes_to_its_body() {
        let body = JsonValue::obj([("x", JsonValue::from(1u64))]);
        let text = format!("psmgen-artifact/v3\n{}\n", body.render());
        let (version, back) = decode_artifact(&text).unwrap();
        assert_eq!(version, 3);
        assert_eq!(back, body);
        assert_eq!(probe_version(&text).unwrap(), 3);
    }

    #[test]
    fn truncated_v3_body_is_a_parse_error() {
        let err = decode_artifact("psmgen-artifact/v3\n{\"compiled\":{\"at\":[0.").unwrap_err();
        assert!(matches!(err, PersistError::Parse { .. }), "{err}");
    }

    #[test]
    fn legacy_headerless_json_is_version_1() {
        let (version, body) = decode_artifact(r#"{"a":1}"#).unwrap();
        assert_eq!(version, 1);
        assert_eq!(body.u64_field("a").unwrap(), 1);
        assert_eq!(probe_version(r#"{"a":1}"#).unwrap(), 1);
    }

    #[test]
    fn truncated_and_wrong_magic_fail_structurally() {
        for text in ["", "   \n", "psmgen-artifact/v2\n", "psmgen-artifact/v2"] {
            let err = decode_artifact(text).unwrap_err();
            assert!(err.to_string().contains("truncated"), "{text:?} → {err}");
        }
        let err = decode_artifact("ELF\u{7f}garbage").unwrap_err();
        assert!(err.to_string().contains("wrong magic"), "{err}");
        let err = decode_artifact("psmgen-artifact-v2\n{}").unwrap_err();
        assert!(err.to_string().contains("malformed"), "{err}");
    }

    #[test]
    fn future_versions_are_rejected_with_a_named_version() {
        let err = decode_artifact("psmgen-artifact/v99\n{}").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("99") && msg.contains("unsupported"), "{msg}");
        let err = decode_artifact("psmgen-artifact/v0\n{}").unwrap_err();
        assert!(err.to_string().contains("unsupported"), "{err}");
    }

    #[test]
    fn truncated_v2_body_is_a_parse_error() {
        let err = decode_artifact("psmgen-artifact/v2\n{\"a\":").unwrap_err();
        assert!(matches!(err, PersistError::Parse { .. }), "{err}");
    }

    #[test]
    fn probe_reads_header_only() {
        // A probe window that cuts the body mid-token still resolves.
        let text = encode_artifact(&JsonValue::obj([("k", JsonValue::from("v"))]));
        let head = &text[..text.len().min(24)];
        assert_eq!(probe_version(head).unwrap(), ARTIFACT_VERSION);
        assert!(probe_version("").is_err());
        assert!(probe_version("not an artifact").is_err());
    }

    #[test]
    fn file_probe_and_registry_listing() {
        let dir = std::env::temp_dir().join("psm-persist-registry-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let body = JsonValue::obj([("x", JsonValue::from(1u64))]);
        std::fs::write(dir.join("ram@1.json"), encode_artifact(&body)).unwrap();
        std::fs::write(dir.join("ram@2.json"), encode_artifact(&body)).unwrap();
        // A PR 1-era headerless file, bare stem → version 1.
        std::fs::write(dir.join("mac.json"), body.render()).unwrap();
        // Ignored: wrong extension, subdirectory.
        std::fs::write(dir.join("notes.txt"), "hi").unwrap();
        std::fs::create_dir_all(dir.join("sub")).unwrap();

        assert_eq!(
            probe_file_version(&dir.join("ram@2.json")).unwrap(),
            ARTIFACT_VERSION
        );
        assert_eq!(probe_file_version(&dir.join("mac.json")).unwrap(), 1);

        let entries = list_artifacts(&dir).unwrap();
        let summary: Vec<(String, u64, u32)> = entries
            .iter()
            .map(|e| (e.name.clone(), e.version, e.format_version))
            .collect();
        assert_eq!(
            summary,
            vec![
                ("mac".to_owned(), 1, 1),
                ("ram".to_owned(), 1, 2),
                ("ram".to_owned(), 2, 2),
            ]
        );

        // A wrong-magic file fails the listing, naming the file.
        std::fs::write(dir.join("bad@3.json"), "ELF\u{7f}").unwrap();
        let err = list_artifacts(&dir).unwrap_err();
        assert!(err.to_string().contains("bad@3.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_is_an_io_error() {
        let err = list_artifacts(Path::new("/nonexistent/psmgen/registry")).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)), "{err}");
    }

    #[test]
    fn odd_stems_fold_into_the_name() {
        let dir = std::env::temp_dir().join("psm-persist-odd-stems-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("model@beta.json"), "{}").unwrap();
        let entries = list_artifacts(&dir).unwrap();
        assert_eq!(entries[0].name, "model@beta");
        assert_eq!(entries[0].version, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
