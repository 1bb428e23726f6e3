#include "robust/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "robust/fault_injector.h"
#include "util/env.h"
#include "util/json.h"
#include "util/logging.h"

namespace bd::robust {

std::string encode_journal_line(const std::string& key,
                                const JournalFields& fields) {
  JsonObject body;
  for (const auto& [name, value] : fields) body.set(name, value);
  return JsonObject().set("key", key).set_raw("fields", body.str()).str() +
         '\n';
}

bool parse_journal_line(const std::string& line, std::string& key,
                        JournalFields& fields) {
  Json entry;
  std::string error;
  if (!Json::parse(line, entry, error) || !entry.is_object() ||
      entry.members().size() != 2) {
    return false;
  }
  const Json* k = entry.find("key");
  const Json* f = entry.find("fields");
  if (k == nullptr || !k->is_string() || f == nullptr || !f->is_object()) {
    return false;
  }
  JournalFields parsed;
  for (const auto& [name, value] : f->members()) {
    if (!value.is_string()) return false;
    parsed[name] = value.as_string();
  }
  key = k->as_string();
  fields = std::move(parsed);
  return true;
}

bool journal_fsync_enabled() {
  return env_int("BDPROTO_JOURNAL_FSYNC").value_or(0) != 0;
}

void append_line_atomic(const std::string& path, const std::string& line) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw std::runtime_error("journal: cannot open '" + path +
                             "' for append: " + std::strerror(errno));
  }
  ssize_t n;
  do {
    n = ::write(fd, line.data(), line.size());
  } while (n < 0 && errno == EINTR);
  // A short write on a regular file is an ENOSPC-class failure. The torn
  // tail (if any bytes landed) is exactly the shape every reader already
  // tolerates and drops.
  if (n != static_cast<ssize_t>(line.size())) {
    const std::string reason =
        n < 0 ? std::strerror(errno) : "short write";
    ::close(fd);
    throw std::runtime_error("journal: write failure on '" + path +
                             "': " + reason);
  }
  if (journal_fsync_enabled()) ::fsync(fd);
  ::close(fd);
}

RunJournal::RunJournal(std::string path) : path_(std::move(path)) {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return;  // journal does not exist yet: start empty

  std::size_t line_no = 0;
  bool reterminate = false;  // final line is intact but lost its newline
  std::string line;
  while (true) {
    const std::streamoff start = in.tellg();
    if (!std::getline(in, line)) break;
    ++line_no;
    const bool has_newline = !in.eof();
    if (line.empty()) continue;

    std::string key;
    JournalFields fields;
    if (parse_journal_line(line, key, fields)) {
      entries_[key] = std::move(fields);
      reterminate = !has_newline;
      continue;
    }
    // Damaged line. A torn FINAL line is the expected shape after a kill
    // mid-append: drop it by truncating the file back to the last intact
    // entry. Damage anywhere else is corruption worth failing loudly.
    if (in.peek() == std::ifstream::traits_type::eof()) {
      BD_LOG(Warn) << "journal '" << path_ << "': dropping torn final line "
                   << line_no << " (" << line.size() << " bytes)";
      in.close();
      std::filesystem::resize_file(path_, static_cast<std::uintmax_t>(start));
      return;
    }
    throw std::runtime_error("journal '" + path_ + "': malformed line " +
                             std::to_string(line_no));
  }

  if (reterminate) {
    in.close();
    append_line_atomic(path_, "\n");
  }
}

const JournalFields* RunJournal::find(const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void RunJournal::record(const std::string& key, const JournalFields& fields) {
  if (!enabled()) return;

  // Fault sites fire BEFORE any byte is written: a failed append that the
  // supervisor retries must re-append a whole line, never extend a torn one.
  auto& faults = FaultInjector::instance();
  faults.fire_slow_io("journal append '" + path_ + "'");
  faults.fire_io("journal append '" + path_ + "'");

  append_line_atomic(path_, encode_journal_line(key, fields));
  entries_[key] = fields;
}

std::string stable_hash_hex(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace bd::robust
