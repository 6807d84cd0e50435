#include "net/wire.h"

#include <algorithm>

namespace cqms::net {

namespace {

// The generic body codec: an Encoder or Decoder is the visitor a field
// list calls with its members (CQMS_WIRE_FIELDS in wire.h), and each
// member's C++ type picks its encoding.

/// The last valid value of each enum on the wire (decoders reject
/// larger bytes).
constexpr metaquery::ResultOrder LastValue(metaquery::ResultOrder) {
  return metaquery::ResultOrder::kLogOrder;
}
constexpr storage::Visibility LastValue(storage::Visibility) {
  return storage::Visibility::kPublic;
}
constexpr db::ValueType LastValue(db::ValueType) {
  return db::ValueType::kBool;
}

template <typename T>
struct IsOptional : std::false_type {};
template <typename T>
struct IsOptional<std::optional<T>> : std::true_type {};
template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};
template <typename T>
struct IsPair : std::false_type {};
template <typename A, typename B>
struct IsPair<std::pair<A, B>> : std::true_type {};

template <typename T, typename... Us>
constexpr bool kIsOneOf = (std::is_same_v<T, Us> || ...);
template <typename T>
constexpr bool kIsScalar =
    std::is_arithmetic_v<T> || std::is_enum_v<T> || std::is_same_v<T, std::string>;

class Encoder {
 public:
  explicit Encoder(BinaryWriter* w) : w_(w) {}

  template <typename... F>
  void operator()(const F&... fields) {
    (Put(fields), ...);
  }

 private:
  void Put(SinceMinor) {}
  void Put(Fixed32<const uint32_t> f) { w_->PutFixed32(f.value); }

  template <typename T>
  void Put(const T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      w_->PutString(v);
    } else if constexpr (std::is_same_v<T, bool>) {
      w_->PutU8(v ? 1 : 0);
    } else if constexpr (std::is_same_v<T, uint8_t> || std::is_enum_v<T>) {
      w_->PutU8(static_cast<uint8_t>(v));
    } else if constexpr (kIsOneOf<T, uint32_t, uint64_t>) {
      w_->PutVarint(v);
    } else if constexpr (kIsOneOf<T, int, int64_t>) {
      w_->PutZigzag(v);
    } else if constexpr (std::is_same_v<T, double>) {
      w_->PutDouble(v);
    } else if constexpr (IsOptional<T>::value) {
      Put(v.has_value());
      if (v.has_value()) Put(*v);
    } else if constexpr (IsVector<T>::value) {
      w_->PutVarint(v.size());
      for (const auto& e : v) Put(e);
    } else if constexpr (IsPair<T>::value) {
      Put(v.first);
      Put(v.second);
    } else if constexpr (std::is_same_v<T, db::Value>) {
      Put(v.type());
      switch (v.type()) {
        case db::ValueType::kNull: break;
        case db::ValueType::kInt: Put(v.AsInt()); break;
        case db::ValueType::kDouble: Put(v.AsDouble()); break;
        case db::ValueType::kString: Put(v.AsString()); break;
        case db::ValueType::kBool: Put(v.AsBool()); break;
      }
    } else {
      WireFields(v, *this);
    }
  }

  BinaryWriter* w_;
};

class Decoder {
 public:
  explicit Decoder(BinaryReader* r) : r_(r) {}

  /// Reads the fields in order. Like BinaryReader itself it reads on
  /// past a failure (every read then returns zeros) and leaves the
  /// verdict to the caller's failed() check: stopping at the first
  /// failure would put each read behind a chain of branches, which GCC
  /// prices as unlikely and stops inlining the varint fast path into.
  template <typename... F>
  void operator()(F&&... fields) {
    Read(fields...);
  }

 private:
  void Read() {}
  /// A body that ends where a trailing group starts came from an older
  /// peer: the group keeps its defaults.
  template <typename... Rest>
  void Read(SinceMinor, Rest&... rest) {
    if (!r_->AtEnd()) Read(rest...);
  }
  template <typename F, typename... Rest>
  void Read(F& first, Rest&... rest) {
    Get(first);
    Read(rest...);
  }

  void Get(Fixed32<uint32_t> f) { f.value = r_->GetFixed32(); }

  template <typename T>
  void Get(T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      v = r_->GetString();
    } else if constexpr (std::is_same_v<T, bool>) {
      v = r_->GetU8() != 0;
    } else if constexpr (std::is_same_v<T, uint8_t>) {
      v = r_->GetU8();
    } else if constexpr (std::is_enum_v<T>) {
      uint8_t raw = r_->GetU8();
      if (raw > static_cast<uint8_t>(LastValue(T{}))) {
        r_->Invalidate();
      } else {
        v = static_cast<T>(raw);
      }
    } else if constexpr (kIsOneOf<T, uint32_t, uint64_t>) {
      v = static_cast<T>(r_->GetVarint());
    } else if constexpr (kIsOneOf<T, int, int64_t>) {
      v = static_cast<T>(r_->GetZigzag());
    } else if constexpr (std::is_same_v<T, double>) {
      v = r_->GetDouble();
    } else if constexpr (IsOptional<T>::value) {
      if constexpr (kIsScalar<typename T::value_type>) {
        if (r_->GetU8() != 0) Get(v.emplace());
      } else {
        GetOptionalMessage(v);
      }
    } else if constexpr (IsVector<T>::value) {
      GetVector(v);
    } else if constexpr (IsPair<T>::value) {
      Get(v.first);
      Get(v.second);
    } else if constexpr (std::is_same_v<T, db::Value>) {
      db::ValueType type = db::ValueType::kNull;
      Get(type);
      switch (type) {
        case db::ValueType::kNull: v = db::Value::Null(); break;
        case db::ValueType::kInt: v = db::Value::Int(r_->GetZigzag()); break;
        case db::ValueType::kDouble: v = db::Value::Double(r_->GetDouble()); break;
        case db::ValueType::kString: v = db::Value::String(r_->GetString()); break;
        case db::ValueType::kBool: v = db::Value::Bool(r_->GetU8() != 0); break;
      }
    } else {
      WireFields(v, *this);
    }
  }

  // Vectors and optional messages decode out of line, one copy per
  // element type: inlined into every message they would grow the
  // translation unit past the point where GCC still inlines the
  // reader's varint fast path.
  template <typename T>
  [[gnu::noinline]] void GetOptionalMessage(std::optional<T>& v) {
    if (r_->GetU8() != 0) Get(v.emplace());
  }
  template <typename T>
  [[gnu::noinline]] void GetVector(std::vector<T>& v) {
    uint64_t n = r_->GetVarint();
    if (n > r_->remaining()) r_->Invalidate();
    if (r_->failed()) return;
    v.reserve(std::min(n, kMaxDecodeReserve));
    for (uint64_t i = 0; i < n; ++i) {
      // Decoded into a local: stores into vector memory could alias the
      // reader's cursor and force a reload after every field.
      T e{};
      Get(e);
      if (r_->failed()) return;
      v.push_back(std::move(e));
    }
  }

  BinaryReader* r_;
};

}  // namespace

template <typename M>
void EncodeBody(BinaryWriter* w, const M& m) {
  Encoder encoder(w);
  WireFields(m, encoder);
}

template <typename M>
bool DecodeBody(BinaryReader* r, M* m) {
  Decoder decoder(r);
  WireFields(*m, decoder);
  return !r->failed();
}

#define CQMS_NET_INSTANTIATE(M)                            \
  template void EncodeBody<M>(BinaryWriter*, const M&);    \
  template bool DecodeBody<M>(BinaryReader*, M*);
CQMS_NET_MESSAGES(CQMS_NET_INSTANTIATE)
CQMS_NET_INSTANTIATE(Empty)
#undef CQMS_NET_INSTANTIATE

constexpr bool OpCodesAreDense() {
  for (size_t i = 0; i < std::size(kOps); ++i) {
    if (static_cast<size_t>(kOps[i].op) != i + kMinOp) return false;
  }
  return true;
}
static_assert(OpCodesAreDense(), "InfoOf indexes kOps by op code");

const char* OpName(Op op) {
  uint8_t code = static_cast<uint8_t>(op);
  return code >= kMinOp && code <= kMaxOp ? InfoOf(op).name : "Unknown";
}

void BeginRequest(BinaryWriter* w, uint64_t request_id, Op op) {
  w->PutVarint(request_id);
  w->PutU8(static_cast<uint8_t>(op));
}

void BeginResponse(BinaryWriter* w, uint64_t request_id, Op op) {
  EncodeErrorResponse(w, request_id, op, Status::Ok());  // an OK head
}

void EncodeErrorResponse(BinaryWriter* w, uint64_t request_id, Op op,
                         const Status& error) {
  w->PutVarint(request_id);
  w->PutU8(static_cast<uint8_t>(op));
  w->PutVarint(static_cast<uint64_t>(error.code()));
  w->PutString(error.message());
}

bool DecodeRequestEnvelope(std::string_view payload, RequestEnvelope* out) {
  BinaryReader r(payload);
  out->request_id = r.GetVarint();
  uint8_t op = r.GetU8();
  if (r.failed() || op < kMinOp || op > kMaxOp) return false;
  out->op = static_cast<Op>(op);
  out->body = payload.substr(payload.size() - r.remaining());
  return true;
}

bool DecodeResponseEnvelope(std::string_view payload, ResponseEnvelope* out) {
  BinaryReader r(payload);
  out->request_id = r.GetVarint();
  uint8_t op = r.GetU8();
  uint64_t code = r.GetVarint();
  out->message = r.GetString();
  if (r.failed() || op < kMinOp || op > kMaxOp ||
      code > static_cast<uint64_t>(StatusCode::kNotPrimary)) {
    return false;
  }
  out->op = static_cast<Op>(op);
  out->code = static_cast<StatusCode>(code);
  out->body = payload.substr(payload.size() - r.remaining());
  return true;
}

metaquery::MetaQueryRequest ToMetaQueryRequest(const SearchSpec& spec,
                                               const storage::QueryRecord* probe) {
  metaquery::MetaQueryRequest req;
  if (spec.keyword.has_value()) {
    req.WithKeywords(spec.keyword->words, spec.keyword->match_all);
  }
  if (spec.substring.has_value()) req.WithSubstring(*spec.substring);
  if (spec.feature.has_value()) {
    metaquery::FeatureQuery fq;
    const FeatureSpec& f = *spec.feature;
    for (const std::string& t : f.tables) fq.UsesTable(t);
    for (const auto& [rel, attr] : f.attributes) fq.UsesAttribute(rel, attr);
    for (const FeatureSpec::Predicate& p : f.predicates) {
      fq.HasPredicateOn(p.relation, p.attribute, p.op);
    }
    if (f.user.has_value()) fq.ByUser(*f.user);
    if (f.max_execution_micros.has_value()) {
      fq.MaxExecutionMicros(*f.max_execution_micros);
    }
    if (f.max_result_rows.has_value()) fq.MaxResultRows(*f.max_result_rows);
    if (f.min_result_rows.has_value()) fq.MinResultRows(*f.min_result_rows);
    if (f.succeeded_only) fq.SucceededOnly();
    req.WithFeature(std::move(fq));
  }
  if (spec.structure.has_value()) req.WithStructure(*spec.structure);
  if (spec.data.has_value()) {
    std::vector<metaquery::DataExample> examples;
    examples.reserve(spec.data->examples.size());
    for (const DataExampleSpec& ex : spec.data->examples) {
      metaquery::DataExample e;
      e.cells = ex.cells;
      e.positive = ex.positive;
      examples.push_back(std::move(e));
    }
    metaquery::QueryByDataOptions options;
    options.skip_without_summary = spec.data->skip_without_summary;
    req.WithData(std::move(examples), options);
  }
  if (spec.similarity.has_value() && probe != nullptr) {
    req.SimilarTo(*probe, spec.similarity->weights, spec.similarity->candidates);
  }
  req.ranking = spec.ranking;
  req.order = spec.order;
  req.limit = spec.limit;
  return req;
}

std::string FormatNotPrimary(const std::string& leader) {
  if (leader.empty()) return "not primary";
  return "not primary; leader=" + leader;
}

std::string ParseNotPrimaryLeader(const std::string& message) {
  static constexpr char kTag[] = "leader=";
  size_t pos = message.find(kTag);
  if (pos == std::string::npos) return "";
  size_t start = pos + sizeof(kTag) - 1;
  size_t end = message.find_first_of(" ;,", start);
  if (end == std::string::npos) end = message.size();
  return message.substr(start, end - start);
}

}  // namespace cqms::net
