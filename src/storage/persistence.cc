#include "storage/persistence.h"

#include <cctype>
#include <cstdio>
#include <memory>
#include <sstream>

#include "common/string_util.h"
#include "storage/record_builder.h"
#include "storage/snapshot_v2.h"

namespace cqms::storage {

namespace {

/// Percent-escapes whitespace, '%' and non-printables so every field fits
/// on one space-separated line. The empty field is marked by a lone "%",
/// which no escaped content can produce (a literal '%' always escapes to
/// "%25"), so every field — including a single NUL byte, which escapes
/// to "%00" — round-trips unambiguously. This marker change is what
/// bumps the text header to "CQMS-SNAPSHOT 1.1": version-1 files used
/// "%00" as the empty marker, and the reader keys its decoding on the
/// header so legacy files keep reading correctly.
std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    if (c == '%' || c <= ' ' || c >= 127) {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", c);
      out += buf;
    } else {
      out.push_back(static_cast<char>(c));
    }
  }
  if (out.empty()) out = "%";  // empty-field marker
  return out;
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

/// Inverse of Escape. A truncated trailing escape ("...%4") or a
/// non-hex escape body is corruption, not content: returns false rather
/// than passing the '%' through silently. `legacy_empty_marker` selects
/// the version-1 decoding, where a whole-field "%00" meant empty (that
/// version could not represent a single-NUL field at all — the
/// ambiguity 1.1 fixes).
bool Unescape(const std::string& s, std::string* out,
              bool legacy_empty_marker) {
  out->clear();
  if (s == "%") return true;
  if (legacy_empty_marker && s == "%00") return true;
  out->reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out->push_back(s[i]);
      continue;
    }
    if (i + 2 >= s.size()) return false;  // truncated escape
    int hi = HexValue(s[i + 1]);
    int lo = HexValue(s[i + 2]);
    if (hi < 0 || lo < 0) return false;  // malformed escape body
    out->push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return true;
}

/// Stream-extracts one escaped field and decodes it; false on stream
/// exhaustion or malformed escaping.
bool ReadField(std::istream& in, std::string* out, bool legacy_empty_marker) {
  std::string enc;
  if (!(in >> enc)) return false;
  return Unescape(enc, out, legacy_empty_marker);
}

Status LoadSnapshotV1(QueryStore* store, std::istream& in,
                      const std::string& path, bool legacy_empty_marker) {
  auto read_field = [&](std::istream& stream, std::string* out) {
    return ReadField(stream, out, legacy_empty_marker);
  };
  std::string line;
  QueryId current = kInvalidQueryId;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "U") {
      std::string user;
      if (!read_field(ls, &user)) {
        return Status::IoError("corrupt U line in " + path);
      }
      std::vector<std::string> groups;
      std::string g;
      std::string g_enc;
      while (ls >> g_enc) {
        if (!Unescape(g_enc, &g, legacy_empty_marker)) {
          return Status::IoError("corrupt U line in " + path);
        }
        groups.push_back(g);
      }
      store->acl().AddUser(user, groups);
    } else if (tag == "Q") {
      QueryId id;
      Micros ts;
      SessionId session;
      uint32_t flags;
      double quality;
      std::string user, text;
      ls >> id >> ts >> session >> flags >> quality;
      if (!ls || !read_field(ls, &user) || !read_field(ls, &text)) {
        return Status::IoError("corrupt Q line in " + path);
      }
      QueryRecord record = BuildRecordFromText(text, user, ts);
      record.session_id = session;
      record.flags = flags;
      record.quality = quality;
      current = store->Append(std::move(record));
      if (current != id) {
        return Status::IoError("non-contiguous query ids in snapshot: " + path);
      }
    } else if (tag == "S") {
      if (current == kInvalidQueryId) return Status::IoError("S before Q");
      QueryRecord* r = store->GetMutable(current);
      int succeeded;
      std::string error;
      ls >> r->stats.execution_micros >> r->stats.result_rows >>
          r->stats.rows_scanned >> succeeded;
      if (!ls || !read_field(ls, &error)) {
        return Status::IoError("corrupt S line in " + path);
      }
      r->stats.succeeded = succeeded != 0;
      r->stats.error = std::move(error);
      CQMS_RETURN_IF_ERROR(store->ShareRunStrings(current));
    } else if (tag == "P") {
      if (current == kInvalidQueryId) return Status::IoError("P before Q");
      std::string plan;
      if (!read_field(ls, &plan)) {
        return Status::IoError("corrupt P line in " + path);
      }
      store->GetMutable(current)->stats.plan = std::move(plan);
      CQMS_RETURN_IF_ERROR(store->ShareRunStrings(current));
    } else if (tag == "A") {
      if (current == kInvalidQueryId) return Status::IoError("A before Q");
      Annotation a;
      ls >> a.timestamp;
      if (!ls || !read_field(ls, &a.author) || !read_field(ls, &a.fragment) ||
          !read_field(ls, &a.text)) {
        return Status::IoError("corrupt A line in " + path);
      }
      CQMS_RETURN_IF_ERROR(store->Annotate(current, std::move(a)));
    } else if (tag == "V") {
      if (current == kInvalidQueryId) return Status::IoError("V before Q");
      int vis;
      ls >> vis;
      if (!ls) return Status::IoError("corrupt V line in " + path);
      const QueryRecord* r = store->Get(current);
      CQMS_RETURN_IF_ERROR(store->acl().SetVisibility(
          current, r->user, r->user, static_cast<Visibility>(vis)));
    } else {
      return Status::IoError("unknown snapshot tag '" + tag + "' in " + path);
    }
  }
  return Status::Ok();
}

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view contents,
                       Env* env) {
  if (env == nullptr) env = Env::Default();
  const std::string tmp = path + ".tmp";
  std::unique_ptr<WritableFile> out;
  CQMS_RETURN_IF_ERROR(env->NewWritableFile(tmp, Env::WriteMode::kTruncate,
                                            &out));
  Status s = out->Append(contents);
  if (s.ok()) s = out->Flush();
  // The bytes must be on stable storage *before* the rename publishes
  // them: DurableStore rotates the WAL right after a snapshot save,
  // so a power cut with the snapshot still in the page cache would
  // otherwise lose every mutation since the previous checkpoint.
  if (s.ok()) s = out->Sync();
  Status close_status = out->Close();
  if (s.ok()) s = close_status;
  if (!s.ok()) {
    (void)env->RemoveFile(tmp);
    return s;
  }
  s = env->RenameFile(tmp, path);
  if (!s.ok()) {
    (void)env->RemoveFile(tmp);
    return s;
  }
  // Persist the rename itself (the directory entry). A failure here
  // means the publish may not survive power loss — report it.
  return env->SyncDir(DirnameOf(path));
}

Status ReadFileToString(const std::string& path, std::string* out,
                        Env* env) {
  if (env == nullptr) env = Env::Default();
  std::unique_ptr<RandomAccessFile> in;
  CQMS_RETURN_IF_ERROR(env->NewRandomAccessFile(path, &in));
  uint64_t size = 0;
  CQMS_RETURN_IF_ERROR(in->Size(&size));
  CQMS_RETURN_IF_ERROR(in->Read(0, static_cast<size_t>(size), out));
  if (out->size() != size) return Status::IoError("read failed: " + path);
  return Status::Ok();
}

Status SaveSnapshot(const QueryStore& store, const std::string& path,
                    Env* env) {
  std::ostringstream out;
  out << "CQMS-SNAPSHOT 1.1\n";
  for (const auto& [user, groups] : store.acl().memberships()) {
    out << "U " << Escape(user);
    for (const std::string& g : groups) out << " " << Escape(g);
    out << "\n";
  }
  for (const QueryRecord& r : store.records()) {
    out << "Q " << r.id << " " << r.timestamp << " " << r.session_id << " "
        << r.flags << " " << r.quality << " " << Escape(r.user) << " "
        << Escape(r.text) << "\n";
    out << "S " << r.stats.execution_micros << " " << r.stats.result_rows << " "
        << r.stats.rows_scanned << " " << (r.stats.succeeded ? 1 : 0) << " "
        << Escape(r.stats.error) << "\n";
    if (!r.stats.plan.empty()) out << "P " << Escape(r.stats.plan) << "\n";
    for (const Annotation& a : r.annotations) {
      out << "A " << a.timestamp << " " << Escape(a.author) << " "
          << Escape(a.fragment) << " " << Escape(a.text) << "\n";
    }
    out << "V " << static_cast<int>(store.acl().GetVisibility(r.id)) << "\n";
  }
  return WriteFileAtomic(path, out.str(), env);
}

Status LoadSnapshot(QueryStore* store, const std::string& path,
                    uint64_t* wal_sequence, Env* env) {
  if (wal_sequence != nullptr) *wal_sequence = 0;
  if (store->size() != 0) {
    return Status::InvalidArgument("LoadSnapshot requires an empty store");
  }
  std::string file;
  CQMS_RETURN_IF_ERROR(ReadFileToString(path, &file, env));
  return LoadSnapshotFromString(store, file, path, wal_sequence);
}

Status LoadSnapshotFromString(QueryStore* store, std::string_view data,
                              const std::string& label,
                              uint64_t* wal_sequence,
                              const SnapshotConsumed& on_consumed) {
  if (wal_sequence != nullptr) *wal_sequence = 0;
  if (store->size() != 0) {
    return Status::InvalidArgument("LoadSnapshot requires an empty store");
  }
  // Dispatch on the header: binary v2 magic, else the v1 text format.
  if (data.substr(0, kSnapshotV2Magic.size()) == kSnapshotV2Magic) {
    return LoadSnapshotV2FromString(store, data, label, wal_sequence,
                                    on_consumed);
  }
  std::istringstream in{std::string(data)};
  std::string line;
  if (!std::getline(in, line) || line.rfind("CQMS-SNAPSHOT", 0) != 0) {
    // Neither the v2 magic nor the v1 text header: the bytes fail
    // validation, which routes DurableStore::Open to its fallback.
    return Status::Corruption("not a CQMS snapshot: " + label);
  }
  // Version "1" files used "%00" as the empty-field marker; "1.1" moved
  // it to a lone "%" so single-NUL fields round-trip.
  std::istringstream header(line);
  std::string word, version;
  header >> word >> version;
  return LoadSnapshotV1(store, in, label,
                        /*legacy_empty_marker=*/version == "1");
}

}  // namespace cqms::storage
