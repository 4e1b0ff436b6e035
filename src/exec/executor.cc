#include "src/exec/executor.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/common/thread_pool.h"
#include "src/exec/profile.h"
#include "src/expr/vector_eval.h"

namespace xdb {

void ComputeTrace::Add(const ComputeTrace& other) {
  scan_rows += other.scan_rows;
  foreign_rows += other.foreign_rows;
  filter_input_rows += other.filter_input_rows;
  project_rows += other.project_rows;
  join_build_rows += other.join_build_rows;
  join_probe_rows += other.join_probe_rows;
  join_output_rows += other.join_output_rows;
  agg_input_rows += other.agg_input_rows;
  agg_output_rows += other.agg_output_rows;
  sort_rows += other.sort_rows;
  materialized_rows += other.materialized_rows;
  output_rows += other.output_rows;
}

namespace {

// Morsel granules. Fixed constants — never derived from the worker count —
// because morsel boundaries are part of the deterministic contract: output
// row order and floating-point accumulation order depend only on the input,
// so exec_threads=1 and exec_threads=N produce bit-identical results (and
// therefore identical ComputeTrace counters, transfer volumes, and figure
// reproductions).
constexpr size_t kMorselRows = 4096;      // filter / project / join probe
constexpr size_t kAggMorselRows = 16384;  // aggregation partial-state ranges
constexpr size_t kKeyBlockRows = 1024;    // group keys decoded at a time

/// The profiler record of the operator currently executing, or nullptr when
/// no profiler is attached. Only touched on the coordinating thread (stats
/// are filled around — never inside — the morsel-parallel regions).
OperatorStats* ProfCurrent(ExecContext* ctx) {
  OperatorProfiler* prof = ctx->profiler();
  return prof != nullptr ? prof->current() : nullptr;
}

int64_t MorselCount(size_t n, size_t morsel_rows) {
  return static_cast<int64_t>((n + morsel_rows - 1) / morsel_rows);
}

/// Runs `fn(begin, end, &part)` over fixed-size morsels of [0, n), each
/// morsel filling a part of its own; the parts come back in morsel order, so
/// concatenating them is identical to a serial loop for any worker count.
/// A morsel fills a local part and moves it into its slot once: neighbouring
/// slots share a cache line, and the workers take neighbouring morsels.
template <typename Part, typename MorselFn>
std::vector<Part> PerMorsel(int workers, size_t n, size_t morsel_rows,
                            const MorselFn& fn) {
  std::vector<Part> parts((n + morsel_rows - 1) / morsel_rows);
  ParallelFor(workers, n, morsel_rows,
              [&](size_t m, size_t begin, size_t end) {
                Part part;
                fn(begin, end, &part);
                parts[m] = std::move(part);
              });
  return parts;
}

SelVector Concat(const std::vector<SelVector>& parts) {
  SelVector out;
  size_t total = 0;
  for (const SelVector& p : parts) total += p.size();
  out.reserve(total);
  for (const SelVector& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

using PositionsPtr = ColumnChunk::PositionsPtr;

/// Appends to `out` the lanes `idx` (every lane when null) of each column of
/// `in`, as references that share ownership of in's lanes. The columns that
/// share a position list compose it with `idx` once.
void AppendReferences(const TablePtr& in, const PositionsPtr& idx,
                      std::vector<ColumnChunk>* out) {
  ColumnChunk::Compositions composed;
  for (const ColumnChunk& c : in->columns()) {
    out->push_back(ColumnChunk::Reference({in, &c}, idx, &composed));
  }
}

/// The rows `idx` of `in` (every row when null), in index order.
TablePtr SelectRows(const Schema& schema, const TablePtr& in,
                    const PositionsPtr& idx) {
  std::vector<ColumnChunk> columns;
  AppendReferences(in, idx, &columns);
  return std::make_shared<Table>(schema, std::move(columns),
                                 idx != nullptr ? idx->size()
                                                : in->num_rows());
}

/// The ascending rows `sel` of a `rows`-row input as a position list: none
/// when `sel` keeps every row.
PositionsPtr Subset(SelVector sel, size_t rows) {
  if (sel.size() == rows) return nullptr;
  return std::make_shared<const SelVector>(std::move(sel));
}

/// \brief The key columns of one join side, decoded a range of rows at a
/// time into key lanes and row hashes.
struct JoinKeys {
  std::vector<const ColumnChunk*> cols;

  JoinKeys(const Table& t, const std::vector<int>& keys) {
    for (int k : keys) cols.push_back(&t.column(static_cast<size_t>(k)));
  }

  /// Decodes rows [begin, end): key column c's lane of row begin + r goes to
  /// lanes[c * stride + r], the row's key hash to hashes[r], and valid[r] is
  /// 0 when a lane is NULL (the row never matches). With no key columns
  /// (a cross product) every row is valid and hashes to 0.
  void Decode(size_t begin, size_t end, KeyLane* lanes, size_t stride,
              uint64_t* hashes, uint8_t* valid) const {
    for (size_t c = 0; c < cols.size(); ++c) {
      cols[c]->DecodeKeyLanes(begin, end, lanes + c * stride);
    }
    for (size_t r = 0; r < end - begin; ++r) {
      uint64_t h = 0;
      bool ok = true;
      for (size_t c = 0; c < cols.size(); ++c) {
        const KeyLane& lane = lanes[c * stride + r];
        ok = ok && lane.cls != KeyClass::kNull;
        h = h * 0x9e3779b97f4a7c15ULL ^ HashKeyLane(lane);
      }
      hashes[r] = h;
      valid[r] = ok ? 1 : 0;
    }
  }
};

/// \brief Flat hash-join build table over key lanes.
///
/// A row's bucket is the low bits of its key hash. Bucket b owns the slots
/// [offsets[b], offsets[b + 1]), which hold its build rows in ascending row
/// order (a stable counting sort), each with its hash and key lanes; rows
/// with a NULL key lane are left out. tags[b] ORs the JoinTagBit of the
/// bucket's hashes, so a probe row whose bit is clear there matches nothing
/// in it. A probe walks one bucket and keeps the slots whose hash, lanes and
/// string bytes equal its own: exactly the build rows whose normalized key
/// bytes equal the probe's, in ascending row order. The layout depends only
/// on the build input, never on the worker count.
struct JoinTable {
  size_t width = 0;  // key columns
  uint64_t mask = 0;  // bucket count - 1 (a power of two)
  std::vector<uint32_t> offsets;
  std::vector<uint16_t> tags;
  std::vector<uint32_t> rows;
  std::vector<uint64_t> hashes;
  std::vector<KeyLane> lanes;  // `width` per slot

  JoinTable(const JoinKeys& keys, size_t n, int workers)
      : width(keys.cols.size()) {
    // Decode every build row's lanes and hash once, morsel-parallel.
    std::vector<KeyLane> row_lanes(width * n);
    std::vector<uint64_t> row_hashes(n);
    std::vector<uint8_t> valid(n);
    ParallelFor(workers, n, kMorselRows,
                [&](size_t /*m*/, size_t begin, size_t end) {
                  keys.Decode(begin, end, row_lanes.data() + begin, n,
                              row_hashes.data() + begin, valid.data() + begin);
                });
    size_t slots = 0;
    for (uint8_t v : valid) slots += v;
    size_t buckets = 1;
    while (buckets < slots) buckets <<= 1;
    mask = buckets - 1;
    offsets.assign(buckets + 1, 0);
    tags.assign(buckets, 0);
    for (size_t j = 0; j < n; ++j) {
      if (valid[j] == 0) continue;
      const uint64_t h = row_hashes[j];
      ++offsets[(h & mask) + 1];
      tags[h & mask] |= JoinTagBit(h);
    }
    for (size_t b = 0; b < buckets; ++b) offsets[b + 1] += offsets[b];
    std::vector<uint32_t> next(offsets.begin(), offsets.end() - 1);
    rows.resize(slots);
    hashes.resize(slots);
    lanes.resize(slots * width);
    for (size_t j = 0; j < n; ++j) {
      if (valid[j] == 0) continue;
      const uint32_t s = next[row_hashes[j] & mask]++;
      rows[s] = static_cast<uint32_t>(j);
      hashes[s] = row_hashes[j];
      for (size_t c = 0; c < width; ++c) {
        lanes[s * width + c] = row_lanes[c * n + j];
      }
    }
  }
};

/// One aggregate's running state.
struct AggState {
  double sum = 0;
  // Integer SUM is exact: 2^64 int64 lanes fit, and the final total is
  // range-checked against int64.
  __int128 isum = 0;
  bool int_sum = true;
  int64_t count = 0;
  Value min = Value::Null(TypeId::kInt64);
  Value max = Value::Null(TypeId::kInt64);

  /// Folds lane `i` of an aggregate's evaluated input. SQL aggregates skip
  /// NULLs; SUM/AVG read plain payloads directly.
  void Add(AggKind kind, const ColumnChunk& in, size_t i) {
    if (in.IsNull(i)) return;
    ++count;
    const bool plain = in.encoding() == ColumnEncoding::kPlain;
    switch (kind) {
      case AggKind::kSum:
      case AggKind::kAvg:
        if (plain && in.type() == TypeId::kDouble) {
          int_sum = false;
          sum += in.f64_data()[i];
        } else if (plain && in.type() != TypeId::kString) {
          sum += static_cast<double>(in.i64_data()[i]);
          isum += in.i64_data()[i];
        } else {
          const Value v = in.GetValue(i);
          if (v.type() == TypeId::kDouble) int_sum = false;
          sum += v.AsDouble();
          isum += v.type() == TypeId::kDouble ? 0 : v.int64_value();
        }
        break;
      case AggKind::kMin: {
        Value v = in.GetValue(i);
        if (min.is_null() || v.Compare(min) < 0) min = std::move(v);
        break;
      }
      case AggKind::kMax: {
        Value v = in.GetValue(i);
        if (max.is_null() || v.Compare(max) > 0) max = std::move(v);
        break;
      }
      default:
        break;
    }
  }

  /// Folds a later partition's state into this one. Merge order is fixed
  /// (partition order), keeping double summation associativity — and thus
  /// SUM/AVG bits — independent of the worker count. Ties in MIN/MAX keep
  /// the earlier partition's value, matching serial first-seen semantics.
  void Merge(const AggState& o) {
    sum += o.sum;
    isum += o.isum;
    int_sum = int_sum && o.int_sum;
    count += o.count;
    if (!o.min.is_null() && (min.is_null() || o.min.Compare(min) < 0)) {
      min = o.min;
    }
    if (!o.max.is_null() && (max.is_null() || o.max.Compare(max) > 0)) {
      max = o.max;
    }
  }
};

/// A group's representative key values plus per-aggregate states, keyed in
/// the hash table by the normalized key bytes.
struct GroupEntry {
  Row key;
  std::vector<AggState> states;
};

using GroupMap = std::unordered_map<std::string, GroupEntry>;

/// Matched (left row, right row) index pairs of one probe morsel.
struct JoinPairs {
  SelVector left, right;
};

/// Keeps the pairs whose joined row passes `residual`: the residual runs
/// through the batch evaluator over candidate columns gathered for the
/// fields it references only.
void FilterPairs(const Expr& residual, const Table& left, const Table& right,
                 JoinPairs* pairs) {
  const size_t nl = left.schema().num_fields();
  std::vector<int> refs;
  CollectColumnIndices(residual, &refs);
  std::vector<ColumnChunk> cand(nl + right.schema().num_fields());
  for (int r : refs) {
    const size_t c = static_cast<size_t>(r);
    if (cand[c].size() > 0) continue;  // referenced twice
    cand[c] = c < nl ? left.column(c).Gather(pairs->left)
                     : right.column(c - nl).Gather(pairs->right);
  }
  SelVector sel;
  SelRange(0, pairs->left.size(), &sel);
  EvalPredicateBatch(residual, cand, &sel);
  for (size_t k = 0; k < sel.size(); ++k) {
    pairs->left[k] = pairs->left[sel[k]];
    pairs->right[k] = pairs->right[sel[k]];
  }
  pairs->left.resize(sel.size());
  pairs->right.resize(sel.size());
}

Result<TablePtr> ExecJoin(const PlanNode& plan, ExecContext* ctx,
                          TablePtr left, TablePtr right) {
  ComputeTrace* trace = ctx->trace();
  const int workers = ctx->exec_threads();

  // Hash join; build on the smaller input, probe with the larger. A cross
  // product (kept for completeness; the planners avoid it) has no key
  // lanes, so every probe row matches every build row in order.
  const bool build_right =
      plan.left_keys.empty() || right->num_rows() <= left->num_rows();
  const Table& build = build_right ? *right : *left;
  const Table& probe = build_right ? *left : *right;
  const JoinKeys build_keys(build,
                            build_right ? plan.right_keys : plan.left_keys);
  const JoinKeys probe_keys(probe,
                            build_right ? plan.left_keys : plan.right_keys);

  trace->join_build_rows += static_cast<double>(build.num_rows());
  trace->join_probe_rows += static_cast<double>(probe.num_rows());
  if (OperatorStats* s = ProfCurrent(ctx)) {
    s->build_rows = static_cast<double>(build.num_rows());
    s->probe_rows = static_cast<double>(probe.num_rows());
    s->batches = MorselCount(probe.num_rows(), kMorselRows);
  }

  const JoinTable ht(build_keys, build.num_rows(), workers);
  const size_t width = ht.width;

  // Probe runs per morsel; the build table is shared read-only. Each morsel
  // decodes its key lanes into a local buffer, emits (left, right) index
  // pairs in probe order, then match order, and drops the pairs the
  // residual rejects.
  const auto parts = PerMorsel<JoinPairs>(
      workers, probe.num_rows(), kMorselRows,
      [&](size_t begin, size_t end, JoinPairs* out) {
        const size_t m = end - begin;
        std::vector<KeyLane> lanes(width * m);
        std::vector<uint64_t> hashes(m);
        std::vector<uint8_t> valid(m);
        probe_keys.Decode(begin, end, lanes.data(), m, hashes.data(),
                          valid.data());
        // Pass 1, without branches: the rows whose key is not NULL and whose
        // tag bit is set in their bucket's tag. A true match always is; a
        // cross product's rows all hash to 0 and all pass.
        const auto candidates = std::make_unique_for_overwrite<uint32_t[]>(m);
        size_t count = 0;
        for (size_t r = 0; r < m; ++r) {
          const uint64_t h = hashes[r];
          candidates[count] = static_cast<uint32_t>(r);
          count += valid[r] & ((ht.tags[h & ht.mask] & JoinTagBit(h)) != 0);
        }
        auto same_key = [&](uint32_t s, size_t r) {
          for (size_t c = 0; c < width; ++c) {
            const KeyLane& lane = lanes[c * m + r];
            if (!(ht.lanes[s * width + c] == lane)) return false;
            if (lane.cls == KeyClass::kString &&
                build_keys.cols[c]->StringAt(ht.rows[s]) !=
                    probe_keys.cols[c]->StringAt(begin + r)) {
              return false;
            }
          }
          return true;
        };
        // Pass 2: each candidate walks its bucket.
        for (size_t k = 0; k < count; ++k) {
          const size_t r = candidates[k];
          const uint64_t h = hashes[r];
          const uint64_t b = h & ht.mask;
          const uint32_t p = static_cast<uint32_t>(begin + r);
          for (uint32_t s = ht.offsets[b]; s < ht.offsets[b + 1]; ++s) {
            if (ht.hashes[s] != h || !same_key(s, r)) continue;
            out->left.push_back(build_right ? p : ht.rows[s]);
            out->right.push_back(build_right ? ht.rows[s] : p);
          }
        }
        if (plan.residual) FilterPairs(*plan.residual, *left, *right, out);
      });

  JoinPairs all;
  for (const JoinPairs& p : parts) {
    all.left.insert(all.left.end(), p.left.begin(), p.left.end());
    all.right.insert(all.right.end(), p.right.begin(), p.right.end());
  }
  const size_t rows = all.left.size();
  std::vector<ColumnChunk> columns;
  AppendReferences(left, std::make_shared<const SelVector>(std::move(all.left)),
                   &columns);
  AppendReferences(right,
                   std::make_shared<const SelVector>(std::move(all.right)),
                   &columns);
  trace->join_output_rows += static_cast<double>(rows);
  return std::make_shared<Table>(plan.output_schema, std::move(columns),
                                 rows);
}

Result<TablePtr> ExecAggregate(const PlanNode& plan, ExecContext* ctx,
                               TablePtr input) {
  ComputeTrace* trace = ctx->trace();
  const int workers = ctx->exec_threads();
  trace->agg_input_rows += static_cast<double>(input->num_rows());
  if (OperatorStats* s = ProfCurrent(ctx)) {
    s->input_rows = static_cast<double>(input->num_rows());
    s->batches = MorselCount(input->num_rows(), kAggMorselRows);
  }

  const size_t nkeys = plan.group_keys.size();
  const size_t naggs = plan.aggregates.size();
  const size_t n = input->num_rows();
  const std::vector<ColumnChunk>& cols = input->columns();

  // Partial aggregation over fixed row ranges, merged in range order. The
  // range cut depends only on n, so accumulation order — and with it every
  // SUM/AVG double — is identical for any worker count.
  std::vector<GroupMap> partials = PerMorsel<GroupMap>(
      workers, n, kAggMorselRows,
      [&](size_t begin, size_t end, GroupMap* groups) {
        SelVector sel;
        SelRange(begin, end, &sel);
        // Group keys and aggregate inputs are evaluated per range, down
        // their columns, and the keys decoded into lanes a block at a time;
        // each row then finds its group by the normalized bytes of its key
        // lanes.
        const size_t m = sel.size();
        std::vector<ColumnChunk> keys;
        for (size_t c = 0; c < nkeys; ++c) {
          keys.push_back(EvalExprBatch(*plan.group_keys[c], cols, sel));
        }
        std::vector<KeyLane> lanes(nkeys * std::min(m, kKeyBlockRows));
        std::vector<GroupEntry*> entries(m);
        std::string norm;
        for (size_t block = 0; block < m; block += kKeyBlockRows) {
          const size_t rows = std::min(kKeyBlockRows, m - block);
          for (size_t c = 0; c < nkeys; ++c) {
            keys[c].DecodeKeyLanes(block, block + rows,
                                   lanes.data() + c * rows);
          }
          for (size_t r = 0; r < rows; ++r) {
            const size_t i = block + r;
            norm.clear();
            for (size_t c = 0; c < nkeys; ++c) {
              const KeyLane& lane = lanes[c * rows + r];
              AppendNormalizedKey(lane,
                                  lane.cls == KeyClass::kString
                                      ? std::string_view(keys[c].StringAt(i))
                                      : std::string_view(),
                                  &norm);
            }
            auto [it, inserted] = groups->try_emplace(norm);
            if (inserted) {
              it->second.key.reserve(nkeys);
              for (const ColumnChunk& k : keys) {
                it->second.key.push_back(k.GetValue(i));
              }
              it->second.states.resize(naggs);
            }
            entries[i] = &it->second;
          }
        }
        for (size_t a = 0; a < naggs; ++a) {
          const Expr& agg = *plan.aggregates[a];
          if (agg.agg_kind == AggKind::kCountStar) {
            for (GroupEntry* e : entries) ++e->states[a].count;
            continue;
          }
          const ColumnChunk in = EvalExprBatch(*agg.children[0], cols, sel);
          for (size_t i = 0; i < m; ++i) {
            entries[i]->states[a].Add(agg.agg_kind, in, i);
          }
        }
      });

  // Deterministic merge: partitions fold into the first map in range order,
  // so the merged map's contents (and its iteration order, which sets the
  // output row order) are a pure function of the input.
  GroupMap merged = partials.empty() ? GroupMap() : std::move(partials[0]);
  for (size_t p = 1; p < partials.size(); ++p) {
    for (auto& [key, entry] : partials[p]) {
      auto [it, inserted] = merged.try_emplace(key);
      if (inserted) {
        it->second = std::move(entry);
        continue;
      }
      for (size_t a = 0; a < naggs; ++a) {
        it->second.states[a].Merge(entry.states[a]);
      }
    }
  }
  // Global aggregation (no GROUP BY) must yield one row even on empty input.
  if (nkeys == 0 && merged.empty()) {
    merged[std::string()].states.resize(naggs);
  }

  auto out = std::make_shared<Table>(plan.output_schema);
  out->Reserve(merged.size());
  for (auto& [key, entry] : merged) {
    Row row = std::move(entry.key);
    row.reserve(nkeys + naggs);
    for (size_t a = 0; a < naggs; ++a) {
      const Expr& agg = *plan.aggregates[a];
      const AggState& st = entry.states[a];
      switch (agg.agg_kind) {
        case AggKind::kCountStar:
        case AggKind::kCount:
          row.push_back(Value::Int64(st.count));
          break;
        case AggKind::kSum:
          if (st.count == 0) {
            row.push_back(Value::Null(InferType(plan.aggregates[a])));
          } else if (st.int_sum) {
            if (st.isum > std::numeric_limits<int64_t>::max() ||
                st.isum < std::numeric_limits<int64_t>::min()) {
              return Status::ExecutionError("int64 out of range in " +
                                            agg.ToSql());
            }
            row.push_back(Value::Int64(static_cast<int64_t>(st.isum)));
          } else {
            row.push_back(Value::Double(st.sum));
          }
          break;
        case AggKind::kAvg:
          if (st.count == 0) {
            row.push_back(Value::Null(TypeId::kDouble));
          } else {
            row.push_back(
                Value::Double(st.sum / static_cast<double>(st.count)));
          }
          break;
        case AggKind::kMin:
          // An all-NULL (or empty) group yields a NULL of the aggregate's
          // inferred type, not the AggState's kInt64 placeholder.
          if (st.min.is_null()) {
            row.push_back(Value::Null(InferType(plan.aggregates[a])));
          } else {
            row.push_back(st.min);
          }
          break;
        case AggKind::kMax:
          if (st.max.is_null()) {
            row.push_back(Value::Null(InferType(plan.aggregates[a])));
          } else {
            row.push_back(st.max);
          }
          break;
      }
    }
    out->AppendRow(std::move(row));
  }
  trace->agg_output_rows += static_cast<double>(out->num_rows());
  return out;
}

/// The sort permutation of `in` under `keys`: a stable sort, or the first
/// `limit` positions of a partial sort when `limit` >= 0 (top-N).
SelVector SortPermutation(const Table& in,
                          const std::vector<std::pair<int, bool>>& keys,
                          int64_t limit) {
  std::vector<std::vector<Value>> values;
  for (const auto& [idx, desc] : keys) {
    const ColumnChunk& c = in.column(static_cast<size_t>(idx));
    std::vector<Value> lanes;
    lanes.reserve(c.size());
    for (size_t i = 0; i < c.size(); ++i) lanes.push_back(c.GetValue(i));
    values.push_back(std::move(lanes));
  }
  auto less = [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      const int c = values[k][a].Compare(values[k][b]);
      if (c != 0) return keys[k].second ? c > 0 : c < 0;
    }
    return false;
  };
  SelVector perm;
  SelRange(0, in.num_rows(), &perm);
  if (limit < 0) {
    std::stable_sort(perm.begin(), perm.end(), less);
    return perm;
  }
  const size_t n = std::min<size_t>(static_cast<size_t>(limit), perm.size());
  std::partial_sort(perm.begin(), perm.begin() + static_cast<long>(n),
                    perm.end(), less);
  perm.resize(n);
  return perm;
}

/// The unprofiled executor body; ExecutePlan wraps it with the per-operator
/// profiling hook. Child recursion goes back through ExecutePlan so every
/// node gets its own record.
Result<TablePtr> ExecutePlanNode(const PlanNode& plan, ExecContext* ctx) {
  ComputeTrace* trace = ctx->trace();
  switch (plan.kind) {
    case PlanKind::kScan: {
      if (plan.is_foreign) {
        XDB_ASSIGN_OR_RETURN(
            TablePtr t,
            ctx->ForeignFetch(plan.foreign_server, plan.remote_relation,
                              plan.estimate->rows, plan.estimate->bytes()));
        trace->foreign_rows += static_cast<double>(t->num_rows());
        return t;
      }
      XDB_ASSIGN_OR_RETURN(TablePtr t, ctx->GetLocalTable(plan.table));
      trace->scan_rows += static_cast<double>(t->num_rows());
      return t;
    }
    case PlanKind::kFilter: {
      XDB_ASSIGN_OR_RETURN(TablePtr in, ExecutePlan(*plan.children[0], ctx));
      trace->filter_input_rows += static_cast<double>(in->num_rows());
      if (OperatorStats* s = ProfCurrent(ctx)) {
        s->input_rows = static_cast<double>(in->num_rows());
        s->batches = MorselCount(in->num_rows(), kMorselRows);
      }
      const auto sels = PerMorsel<SelVector>(
          ctx->exec_threads(), in->num_rows(), kMorselRows,
          [&](size_t begin, size_t end, SelVector* sel) {
            SelRange(begin, end, sel);
            EvalPredicateBatch(*plan.predicate, in->columns(), sel);
          });
      return SelectRows(plan.output_schema, in,
                        Subset(Concat(sels), in->num_rows()));
    }
    case PlanKind::kProject: {
      XDB_ASSIGN_OR_RETURN(TablePtr in, ExecutePlan(*plan.children[0], ctx));
      trace->project_rows += static_cast<double>(in->num_rows());
      if (OperatorStats* s = ProfCurrent(ctx)) {
        s->input_rows = static_cast<double>(in->num_rows());
        s->batches = MorselCount(in->num_rows(), kMorselRows);
      }
      // A bare column reference passes its input column through. Each morsel
      // evaluates every other output expression down its column; the morsel
      // columns are then concatenated in morsel order.
      std::vector<const Expr*> computed;
      for (const auto& e : plan.exprs) {
        if (e->kind != ExprKind::kColumnRef) computed.push_back(e.get());
      }
      std::vector<std::vector<ColumnChunk>> parts;
      if (!computed.empty()) {
        parts = PerMorsel<std::vector<ColumnChunk>>(
            ctx->exec_threads(), in->num_rows(), kMorselRows,
            [&](size_t begin, size_t end, std::vector<ColumnChunk>* cols) {
              SelVector sel;
              SelRange(begin, end, &sel);
              for (const Expr* e : computed) {
                cols->push_back(EvalExprBatch(*e, in->columns(), sel));
              }
            });
      }
      std::vector<ColumnChunk> cols;
      size_t next = 0;  // the next computed expression's slot in a part
      for (size_t c = 0; c < plan.exprs.size(); ++c) {
        const Expr& e = *plan.exprs[c];
        if (e.kind == ExprKind::kColumnRef) {
          const ColumnChunk& col =
              in->column(static_cast<size_t>(e.column_index));
          cols.push_back(ColumnChunk::Reference({in, &col}, nullptr, nullptr));
          continue;
        }
        cols.emplace_back(plan.output_schema.field(c).type);
        for (auto& part : parts) cols.back().Append(std::move(part[next]));
        ++next;
      }
      return std::make_shared<Table>(plan.output_schema, std::move(cols),
                                     in->num_rows());
    }
    case PlanKind::kJoin: {
      XDB_ASSIGN_OR_RETURN(TablePtr l, ExecutePlan(*plan.children[0], ctx));
      XDB_ASSIGN_OR_RETURN(TablePtr r, ExecutePlan(*plan.children[1], ctx));
      return ExecJoin(plan, ctx, std::move(l), std::move(r));
    }
    case PlanKind::kAggregate: {
      XDB_ASSIGN_OR_RETURN(TablePtr in, ExecutePlan(*plan.children[0], ctx));
      return ExecAggregate(plan, ctx, std::move(in));
    }
    case PlanKind::kSort: {
      XDB_ASSIGN_OR_RETURN(TablePtr in, ExecutePlan(*plan.children[0], ctx));
      trace->sort_rows += static_cast<double>(in->num_rows());
      if (OperatorStats* s = ProfCurrent(ctx)) {
        s->input_rows = static_cast<double>(in->num_rows());
        s->batches = 1;
      }
      return SelectRows(plan.output_schema, in,
                        std::make_shared<const SelVector>(
                            SortPermutation(*in, plan.sort_keys, -1)));
    }
    case PlanKind::kLimit: {
      // Top-N fusion: LIMIT directly over a Sort keeps only the N best
      // rows with a bounded partial sort instead of ordering everything —
      // the pattern TPC-H Q3/Q10 ("ORDER BY revenue DESC LIMIT k") hits.
      // The fused Sort still gets its own profiler record, which holds its
      // logical output: every input row, in order.
      const PlanNode& child = *plan.children[0];
      const bool top_n = child.kind == PlanKind::kSort && plan.limit >= 0;
      OperatorProfiler* prof = top_n ? ctx->profiler() : nullptr;
      const size_t sort_idx = prof != nullptr ? prof->Enter(child) : 0;
      XDB_ASSIGN_OR_RETURN(
          TablePtr in, ExecutePlan(top_n ? *child.children[0] : child, ctx));
      if (top_n) trace->sort_rows += static_cast<double>(in->num_rows());
      if (prof != nullptr) {
        OperatorStats& s = prof->stats(sort_idx);
        s.input_rows = s.output_rows = static_cast<double>(in->num_rows());
        s.batches = 1;
        s.threads = ctx->exec_threads();
        prof->Exit(sort_idx);
      }
      if (OperatorStats* s = ProfCurrent(ctx)) {
        s->input_rows = static_cast<double>(in->num_rows());
        s->batches = 1;
      }
      PositionsPtr idx;
      if (top_n) {
        idx = std::make_shared<const SelVector>(
            SortPermutation(*in, child.sort_keys, plan.limit));
      } else {
        SelVector prefix;
        SelRange(0, std::min<size_t>(static_cast<size_t>(plan.limit),
                                     in->num_rows()),
                 &prefix);
        idx = Subset(std::move(prefix), in->num_rows());
      }
      return SelectRows(plan.output_schema, in, idx);
    }
    case PlanKind::kPlaceholder:
      return Status::Internal(
          "placeholder node reached the executor; delegation should have "
          "replaced it with a foreign table reference");
  }
  return Status::Internal("unknown plan node kind");
}

}  // namespace

Result<TablePtr> ExecutePlan(const PlanNode& plan, ExecContext* ctx) {
  OperatorProfiler* prof = ctx->profiler();
  if (prof == nullptr) return ExecutePlanNode(plan, ctx);
  size_t idx = prof->Enter(plan);
  Result<TablePtr> result = ExecutePlanNode(plan, ctx);
  OperatorStats& s = prof->stats(idx);
  s.threads = ctx->exec_threads();
  if (result.ok()) {
    s.output_rows = static_cast<double>((*result)->num_rows());
  }
  prof->Exit(idx);
  return result;
}

}  // namespace xdb
