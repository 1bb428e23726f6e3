// Append-only JSONL run journal for crash-resumable experiment sweeps.
//
// Each completed experiment cell is one line:
//
//   {"key":"<config hash>","fields":{"acc":"...","asr":"...", ...}}
//
// appended and flushed as soon as the cell finishes, so a kill between
// cells loses at most the in-flight cell. On reopen the journal tolerates
// a torn final line (a write interrupted by the kill): the damaged tail is
// dropped and the next append starts on a fresh line. Lines are written
// and parsed by the shared JSON codec (util/json.h). Field values are
// opaque strings; callers serialize doubles with exact_double() so that
// resumed tables are byte-identical to uninterrupted runs.
//
// Multi-writer safety: every entry is appended with O_APPEND and exactly
// one write(2) call (append_line_atomic below), so concurrent appender
// processes — the sharded bench workers of src/shard/ — can never
// interleave bytes mid-line. BDPROTO_JOURNAL_FSYNC=1 additionally fsyncs
// each append for crash-durability tests.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace bd::robust {

using JournalFields = std::map<std::string, std::string>;

class RunJournal {
 public:
  /// Disabled journal: has() is always false, record() is a no-op.
  RunJournal() = default;

  /// Opens (creating if absent) the journal at `path` and loads every
  /// intact entry. A torn final line is dropped with a warning; a
  /// malformed line elsewhere throws with its line number.
  explicit RunJournal(std::string path);

  bool enabled() const { return !path_.empty(); }
  std::size_t size() const { return entries_.size(); }
  bool has(const std::string& key) const { return entries_.count(key) > 0; }

  /// Entry for `key`, or nullptr when absent.
  const JournalFields* find(const std::string& key) const;

  /// All loaded entries keyed by config hash (inspection, `bdctl verify`).
  const std::map<std::string, JournalFields>& entries() const {
    return entries_;
  }

  /// Appends {key, fields} and flushes to disk before returning. Repeated
  /// keys keep the latest fields in memory. No-op when disabled.
  void record(const std::string& key, const JournalFields& fields);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::map<std::string, JournalFields> entries_;
};

/// Serializes one {key, fields} entry as a single line (trailing newline
/// included) of the journal's canonical JSONL grammar. Shared with the
/// shard lease ledger so both files parse with the same code.
std::string encode_journal_line(const std::string& key,
                                const JournalFields& fields);

/// Parses one line of the canonical grammar into (key, fields): a JSON
/// object with exactly the members "key" (a string) and "fields" (an
/// object of strings). Returns false on any deviation — including a torn
/// line — instead of throwing, so the caller decides whether the damage is
/// tolerable.
bool parse_journal_line(const std::string& line, std::string& key,
                        JournalFields& fields);

/// Appends `line` to `path` with O_APPEND and exactly one write(2) call:
/// concurrent appenders (other worker processes) can never interleave
/// bytes mid-line, so every intact line in the file parses. Honours
/// BDPROTO_JOURNAL_FSYNC=1 by fsyncing before returning. Throws on open
/// failure or a short write (ENOSPC-class; the torn tail is dropped on
/// the next load).
void append_line_atomic(const std::string& path, const std::string& line);

/// True when BDPROTO_JOURNAL_FSYNC=1: every journal/ledger append is
/// fsynced before the writer proceeds (crash-durability testing knob).
bool journal_fsync_enabled();

/// FNV-1a 64-bit hash of `s`, as 16 lowercase hex digits. Stable across
/// runs and platforms (unlike std::hash), so journal keys written by one
/// process match the keys computed by the resuming one.
std::string stable_hash_hex(const std::string& s);

}  // namespace bd::robust
