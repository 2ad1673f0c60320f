#include "checks.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>

namespace paxlint {
namespace {

constexpr const char* kSharedScratch = "shared-scratch";
constexpr const char* kDeterminism = "determinism";
constexpr const char* kWallclock = "wallclock";
constexpr const char* kTraceSinkGuard = "trace-sink-guard";
constexpr const char* kFoldOrder = "fold-order";
constexpr const char* kSuppression = "suppression";

bool is_assign_op(std::string_view s) {
  static const std::set<std::string_view> kOps = {
      "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};
  return kOps.count(s) != 0;
}

bool member_style(std::string_view s) {
  return s.size() >= 2 && s.back() == '_' && s.front() != '_';
}

bool type_like(std::string_view s) {
  static const std::set<std::string_view> kTypes = {
      "int",  "double", "float",    "auto", "bool",  "char",
      "long", "short",  "unsigned", "void", "size_t"};
  return kTypes.count(s) != 0;
}

struct FileScan {
  const Project& project;
  const SourceFile& f;
  std::vector<Finding>& out;
  const std::set<std::string>& enabled;

  void emit(const char* check, int line, int col, std::string msg) {
    if (enabled.count(check) == 0) return;
    Finding fd;
    fd.check = check;
    fd.path = f.path();
    fd.line = line;
    fd.col = col;
    fd.message = std::move(msg);
    out.push_back(std::move(fd));
  }

  // ---- shared-scratch -----------------------------------------------------

  /// One simulated-array access site recorded during a body walk.
  struct ArrayAccess {
    std::string index;
    int line;
    int col;
  };
  struct MemberIo {
    std::vector<ArrayAccess> reads;
    std::vector<ArrayAccess> writes;
  };

  /// Token span of the top-level argument @p which (0-based, comma-split)
  /// within the code range (begin, end) — used to extract the index
  /// argument of Array::put/get/add calls.
  std::pair<std::size_t, std::size_t> arg_span(std::size_t begin,
                                               std::size_t end, int which) {
    int depth = 0;
    int arg = 0;
    std::size_t a0 = begin;
    for (std::size_t j = begin; j < end; ++j) {
      const std::string_view t = f.ct(j).text;
      if (t == "(" || t == "[" || t == "{") ++depth;
      else if (t == ")" || t == "]" || t == "}") --depth;
      else if (t == "," && depth == 0) {
        if (arg == which) return {a0, j};
        ++arg;
        a0 = j + 1;
      }
    }
    if (arg == which) return {a0, end};
    return {end, end};
  }

  std::string nth_arg(std::size_t begin, std::size_t end, int which) {
    const auto [a0, a1] = arg_span(begin, end, which);
    return render(f, a0, a1);
  }

  bool range_has(std::size_t begin, std::size_t end, std::string_view name) {
    if (name.empty()) return false;
    for (std::size_t j = begin; j < end; ++j) {
      if (f.ct(j).kind == Tok::kIdent && f.ct(j).text == name) return true;
    }
    return false;
  }

  bool range_tainted(std::size_t begin, std::size_t end,
                     const std::set<std::string_view>& tainted) {
    for (std::size_t j = begin; j < end; ++j) {
      if (f.ct(j).kind == Tok::kIdent && tainted.count(f.ct(j).text) != 0) {
        return true;
      }
    }
    return false;
  }

  /// True when the index expression in (begin, end) is owned by the
  /// iteration variable: it mentions @p iter, contains no function call
  /// (a call may hash the variable — the RW-histogram shape), and every
  /// other identifier is cast scaffolding.  Such an index maps distinct
  /// iterations to distinct slots, so concurrent bodies cannot collide.
  bool iter_owned(std::size_t begin, std::size_t end, std::string_view iter) {
    static const std::set<std::string_view> kScaffold = {
        "static_cast", "std",      "uint8_t",  "uint16_t", "uint32_t",
        "uint64_t",    "int8_t",   "int16_t",  "int32_t",  "int64_t",
        "ptrdiff_t",   "size_type"};
    if (iter.empty()) return false;
    bool saw = false;
    for (std::size_t j = begin; j < end; ++j) {
      const Token& t = f.ct(j);
      if (t.kind != Tok::kIdent) continue;
      if (j + 1 < end && f.ct(j + 1).text == "(") return false;
      if (t.text == iter) {
        saw = true;
        continue;
      }
      if (kScaffold.count(t.text) == 0 && !type_like(t.text)) return false;
    }
    return saw;
  }

  /// Identifiers transitively assigned from @p seed inside the body — a
  /// local `h = rank * max_key_ + k` carries the rank's disjointness, so
  /// indexing by it counts as per-rank indexing.
  std::set<std::string_view> taint_from(std::size_t b0, std::size_t b1,
                                        std::string_view seed) {
    std::set<std::string_view> tainted;
    if (seed.empty()) return tainted;
    tainted.insert(seed);
    for (std::size_t j = b0; j < b1; ++j) {
      const Token& t = f.ct(j);
      if (t.kind != Tok::kIdent || j == b0 || j + 1 >= b1) continue;
      if (f.ct(j + 1).text != "=") continue;
      const Token& p = f.ct(j - 1);
      const bool decl = p.kind == Tok::kIdent || p.text == "&" ||
                        p.text == "*" || p.text == ">";
      if (!decl) continue;
      std::size_t semi = j + 2;
      int depth = 0;
      while (semi < b1) {
        const std::string_view x = f.ct(semi).text;
        if (x == "(" || x == "[" || x == "{") ++depth;
        else if (x == ")" || x == "]" || x == "}") --depth;
        else if (x == ";" && depth == 0) break;
        ++semi;
      }
      if (range_tainted(j + 2, semi, tainted)) tainted.insert(t.text);
      j = semi;
    }
    return tainted;
  }

  /// Collects identifiers declared inside the code range — the heuristic is
  /// "identifier preceded by a type-ish token" (another identifier, &, *,
  /// >, or a structured binding after auto), which matches declaration
  /// syntax and essentially nothing else.
  std::set<std::string_view> declared_in(std::size_t begin, std::size_t end) {
    std::set<std::string_view> names;
    for (std::size_t j = begin; j < end; ++j) {
      const Token& t = f.ct(j);
      if (t.kind == Tok::kPunct && t.text == "[" && j > begin) {
        const std::string_view prev = f.ct(j - 1).text;
        if (prev == "&" || prev == "auto" || prev == "&&") {
          for (std::size_t b = j + 1; b < end && f.ct(b).text != "]"; ++b) {
            if (f.ct(b).kind == Tok::kIdent) names.insert(f.ct(b).text);
          }
        }
        continue;
      }
      if (t.kind != Tok::kIdent || j == begin) continue;
      const Token& p = f.ct(j - 1);
      const bool typeish =
          p.kind == Tok::kIdent || p.text == "&" || p.text == "*" ||
          p.text == ">" || p.text == "&&";
      if (!typeish) continue;
      if (j + 1 < end) {
        const std::string_view nx = f.ct(j + 1).text;
        if (nx == "=" || nx == ";" || nx == "{" || nx == "(" || nx == ")" ||
            nx == "," || nx == ":" || nx == "[") {
          names.insert(t.text);
        }
      }
    }
    return names;
  }

  void shared_scratch() {
    const std::size_t nc = f.code_size();
    for (std::size_t ci = 0; ci + 1 < nc; ++ci) {
      const Token& t = f.ct(ci);
      if (t.kind != Tok::kIdent) continue;
      if (t.text != "parallel_for" && t.text != "parallel_reduce" &&
          t.text != "parallel_sections") {
        continue;
      }
      if (ci == 0) continue;
      const std::string_view prev = f.ct(ci - 1).text;
      if (prev != "." && prev != "->") continue;  // definition, not a call
      if (f.ct(ci + 1).text != "(") continue;
      const std::size_t args_end = f.match(ci + 1);
      if (args_end >= nc) continue;
      // Every lambda in the argument list is a parallel body.
      for (std::size_t j = ci + 2; j < args_end; ++j) {
        if (f.ct(j).text != "[") continue;
        const std::string_view before = f.ct(j - 1).text;
        if (before != "(" && before != "," && before != "{") continue;
        const std::size_t cap_end = f.match(j);
        if (cap_end >= args_end) continue;
        // analyze_body walks the whole lambda; jump past it so nested
        // lambdas are not re-entered as top-level bodies.
        j = analyze_body(j, cap_end, args_end);
      }
    }
  }

  /// Returns the code index of the lambda's closing body brace (or the
  /// capture close when no body was found), so the caller can skip it.
  std::size_t analyze_body(std::size_t cap_open, std::size_t cap_close,
                           std::size_t limit) {
    bool ref_capture = false;
    for (std::size_t j = cap_open + 1; j < cap_close; ++j) {
      if (f.ct(j).text == "&") ref_capture = true;
    }
    std::set<std::string_view> captured;
    for (std::size_t j = cap_open + 1; j < cap_close; ++j) {
      if (f.ct(j).kind == Tok::kIdent) captured.insert(f.ct(j).text);
    }
    // Parameter list.
    std::vector<std::string_view> params;
    std::size_t after = cap_close + 1;
    if (after < limit && f.ct(after).text == "(") {
      const std::size_t pe = f.match(after);
      int depth = 0;
      std::string_view last_ident;
      for (std::size_t j = after + 1; j <= pe && j < f.code_size(); ++j) {
        const std::string_view x = f.ct(j).text;
        if (x == "(" || x == "[" || x == "{" || x == "<") ++depth;
        else if (x == ")" || x == "]" || x == "}" || x == ">") --depth;
        if ((x == "," && depth == 0) || j == pe) {
          params.push_back(type_like(last_ident) ? std::string_view{}
                                                 : last_ident);
          last_ident = {};
          continue;
        }
        if (f.ct(j).kind == Tok::kIdent) last_ident = x;
      }
      after = pe + 1;
    }
    // Body braces (skip mutable/noexcept/-> ret).
    while (after < f.code_size() && f.ct(after).text != "{") ++after;
    if (after >= f.code_size()) return cap_close;
    const std::size_t body_open = after;
    const std::size_t body_close = f.match(body_open);
    if (body_close >= f.code_size()) return cap_close;
    (void)limit;

    // Rank parameter: the trailing int of (i, ctx, rank) / (ctx, rank).
    const std::string_view rank_var =
        params.empty() ? std::string_view{} : params.back();
    // Iteration variable: the leading param of a parallel_for body.  An
    // index owned by it (see iter_owned) is per-iteration disjoint.
    const std::string_view iter_var =
        params.empty() ? std::string_view{} : params.front();

    std::set<std::string_view> local = declared_in(body_open + 1, body_close);
    for (const std::string_view p : params) {
      if (!p.empty()) local.insert(p);
    }
    const std::set<std::string_view> rank_tainted =
        taint_from(body_open + 1, body_close, rank_var);

    // Does the body branch on the rank (publish/poll discriminator)?
    bool rank_cmp = false;
    if (!rank_var.empty()) {
      for (std::size_t j = body_open + 1; j + 1 < body_close; ++j) {
        if ((f.ct(j).text == rank_var &&
             (f.ct(j + 1).text == "==" || f.ct(j + 1).text == "!=")) ||
            ((f.ct(j).text == "==" || f.ct(j).text == "!=") &&
             f.ct(j + 1).text == rank_var)) {
          rank_cmp = true;
          break;
        }
      }
    }

    static const std::set<std::string_view> kMutating = {
        "resize",  "assign", "push_back", "emplace_back", "pop_back",
        "clear",   "insert", "erase",     "swap",         "reserve",
        "emplace", "shrink_to_fit"};

    std::map<std::string, MemberIo> io;

    for (std::size_t k = body_open + 1; k < body_close; ++k) {
      const Token& tk = f.ct(k);
      if (tk.kind != Tok::kIdent) continue;
      const std::string_view name = tk.text;
      if (local.count(name) != 0) continue;
      // A field selector (`x.field`) is part of the access path walked
      // from its base, not an independent target — except `this->field`,
      // where the field is the base.
      const std::string_view pv = k > body_open ? f.ct(k - 1).text : "";
      if (pv == ".") continue;
      if (pv == "->" && (k < body_open + 3 || f.ct(k - 2).text != "this")) {
        continue;
      }
      const bool member = member_style(name);
      if (!member) {
        // Captured-by-reference locals are the other racy scratch class;
        // anything else (function names, types, qualified names) is not a
        // write target.
        if (!ref_capture && captured.count(name) == 0) continue;
        if (k + 1 < body_close) {
          const std::string_view nx = f.ct(k + 1).text;
          if (nx == "(" || nx == "::") continue;  // call / qualified name
        }
      }
      // Walk the access path: subscripts, field accesses, method calls.
      std::size_t j = k + 1;
      bool rank_indexed = false;
      bool iter_indexed = false;
      std::string path_key(name);
      std::string_view last_method;
      std::size_t margs_begin = 0;
      std::size_t margs_end = 0;
      while (j < body_close) {
        const std::string_view x = f.ct(j).text;
        if (x == "[") {
          const std::size_t e = f.match(j);
          if (e >= body_close) break;
          if (range_tainted(j + 1, e, rank_tainted)) rank_indexed = true;
          if (iter_owned(j + 1, e, iter_var)) iter_indexed = true;
          last_method = {};
          j = e + 1;
        } else if ((x == "." || x == "->") && j + 1 < body_close &&
                   f.ct(j + 1).kind == Tok::kIdent) {
          if (j + 2 < body_close && f.ct(j + 2).text == "(") {
            const std::size_t e = f.match(j + 2);
            if (e >= body_close) break;
            last_method = f.ct(j + 1).text;
            margs_begin = j + 3;
            margs_end = e;
            if (range_tainted(margs_begin, margs_end, rank_tainted)) {
              rank_indexed = true;
            }
            j = e + 1;
          } else {
            // Sub-object access: distinct fields are distinct arrays, so
            // the in-place-read/write bookkeeping keys on the full path.
            path_key += '.';
            path_key += f.ct(j + 1).text;
            last_method = {};
            j += 2;
          }
        } else {
          break;
        }
      }
      const std::string_view nx = j < body_close ? f.ct(j).text : "";
      const bool assigned = is_assign_op(nx);
      const bool incdec =
          nx == "++" || nx == "--" || pv == "++" || pv == "--";
      const char* what = member ? "member" : "captured buffer";

      if (assigned && last_method == "host") {
        if (!rank_indexed) {
          io[path_key].writes.push_back(
              {render(f, margs_begin, margs_end), tk.line, tk.col});
        }
      } else if (assigned || incdec) {
        if (!rank_indexed && !iter_indexed) {
          emit(kSharedScratch, tk.line, tk.col,
               std::string(what) + " '" + std::string(name) +
                   "' is mutated inside a parallel body without per-rank "
                   "indexing — every rank's body writes the same host "
                   "buffer (FT-pencil / ADI-scratch class)");
        }
      } else if (!last_method.empty() && kMutating.count(last_method) != 0) {
        if (!rank_indexed) {
          emit(kSharedScratch, tk.line, tk.col,
               std::string(what) + " '" + std::string(name) + "." +
                   std::string(last_method) +
                   "()' mutates shared scratch inside a parallel body "
                   "without per-rank indexing (FT-pencil / ADI-scratch "
                   "class)");
        }
      } else if (last_method == "add") {
        const auto [a0, a1] = arg_span(margs_begin, margs_end, 1);
        if (!rank_indexed && !iter_owned(a0, a1, iter_var)) {
          emit(kSharedScratch, tk.line, tk.col,
               "unsynchronised read-modify-write '" + path_key +
                   ".add()' on a shared array inside a parallel body — "
                   "wrap in team.critical()/atomic_rmw() or make it "
                   "per-rank (RW-histogram class)");
        }
      } else if (last_method == "put") {
        if (!rank_indexed) {
          io[path_key].writes.push_back(
              {nth_arg(margs_begin, margs_end, 1), tk.line, tk.col});
        }
      } else if (last_method == "host") {
        if (!rank_indexed) {
          io[path_key].reads.push_back(
              {render(f, margs_begin, margs_end), tk.line, tk.col});
        }
      } else if (last_method == "get") {
        if (!rank_indexed) {
          io[path_key].reads.push_back(
              {nth_arg(margs_begin, margs_end, 1), tk.line, tk.col});
        }
      }
    }

    // Same-array read+write with differing index expressions: the in-place
    // neighbour-stencil shape (MG Jacobi).  A read whose index matches no
    // write index crosses iterations that another rank may own.
    for (const auto& [name, acc] : io) {
      if (acc.writes.empty() || acc.reads.empty()) continue;
      std::set<std::string> write_idx;
      for (const ArrayAccess& w : acc.writes) write_idx.insert(w.index);
      const ArrayAccess* neighbour = nullptr;
      for (const ArrayAccess& r : acc.reads) {
        if (write_idx.count(r.index) == 0) {
          neighbour = &r;
          break;
        }
      }
      if (neighbour != nullptr) {
        emit(kSharedScratch, neighbour->line, neighbour->col,
             "array '" + name + "' is written at '" +
                 acc.writes.front().index + "' and read at '" +
                 neighbour->index +
                 "' in the same parallel body — in-place neighbour access "
                 "races across iterations (MG in-place Jacobi class)");
      } else if (rank_cmp) {
        emit(kSharedScratch, acc.writes.front().line, acc.writes.front().col,
             "array '" + name +
                 "' is written under a rank condition and read by other "
                 "ranks in the same parallel body — unsynchronised "
                 "publish/poll (RF-flag class)");
      }
    }
    return body_close;
  }

  // ---- determinism --------------------------------------------------------

  void determinism() {
    const std::size_t nc = f.code_size();
    for (std::size_t ci = 0; ci + 1 < nc; ++ci) {
      const Token& t = f.ct(ci);
      if (t.kind != Tok::kIdent) continue;
      // Range-for over an unordered container.
      if (t.text == "for" && f.ct(ci + 1).text == "(") {
        const std::size_t fe = f.match(ci + 1);
        if (fe >= nc) continue;
        int depth = 0;
        std::size_t colon = 0;
        for (std::size_t j = ci + 2; j < fe; ++j) {
          const std::string_view x = f.ct(j).text;
          if (x == "(" || x == "[" || x == "{") ++depth;
          else if (x == ")" || x == "]" || x == "}") --depth;
          else if (x == ":" && depth == 0) {
            colon = j;
            break;
          }
        }
        if (colon == 0) continue;
        // The range must be a plain identifier chain to be resolvable.
        std::string_view name;
        bool simple = true;
        for (std::size_t j = colon + 1; j < fe; ++j) {
          const Token& x = f.ct(j);
          if (x.kind == Tok::kIdent) name = x.text;
          else if (x.text != "." && x.text != "->" && x.text != "::")
            simple = false;
        }
        if (!simple || name.empty()) continue;
        report_unordered(name, t.line, t.col, "range-for");
        continue;
      }
      // Iterator loop: X.begin() / X.cbegin() where X is unordered.
      if ((t.text == "begin" || t.text == "cbegin") && ci >= 2 &&
          (f.ct(ci - 1).text == "." || f.ct(ci - 1).text == "->") &&
          f.ct(ci + 1).text == "(" && f.ct(ci - 2).kind == Tok::kIdent) {
        report_unordered(f.ct(ci - 2).text, t.line, t.col, "iteration");
      }
    }
  }

  void report_unordered(std::string_view name, int line, int col,
                        const char* how) {
    const auto d = project.decl_visible(f, name);
    if (!d) return;
    if (d->kind == DeclKind::kUnordered) {
      emit(kDeterminism, line, col,
           std::string(how) + " over std::" + d->type_text + " '" +
               std::string(name) +
               "' — hash order is unspecified and must not reach "
               "counters, reports or fingerprints; iterate a sorted copy "
               "or key it deterministically");
    } else {
      emit(kDeterminism, line, col,
           std::string(how) + " over pointer-keyed " + d->type_text + " '" +
               std::string(name) +
               "' — pointer order is ASLR-dependent across runs");
    }
  }

  // ---- wallclock ----------------------------------------------------------

  void wallclock() {
    const std::size_t nc = f.code_size();
    for (std::size_t ci = 0; ci < nc; ++ci) {
      const Token& t = f.ct(ci);
      if (t.kind != Tok::kIdent) continue;
      const std::string_view prev = ci > 0 ? f.ct(ci - 1).text : "";
      const std::string_view next = ci + 1 < nc ? f.ct(ci + 1).text : "";
      if (t.text == "random_device") {
        emit(kWallclock, t.line, t.col,
             "std::random_device is a host nondeterminism source — "
             "simulated behaviour must derive from seeded npb::Rng state");
        continue;
      }
      if ((t.text == "rand" || t.text == "srand") && next == "(") {
        if (prev == "." || prev == "->") continue;
        emit(kWallclock, t.line, t.col,
             std::string(t.text) +
                 "() draws host-global nondeterministic state — use the "
                 "seeded npb::Rng instead");
        continue;
      }
      if ((t.text == "time" || t.text == "clock") && next == "(") {
        if (prev == "." || prev == "->") continue;
        if (prev.size() > 0 && prev != "::" && f.ct(ci - 1).kind == Tok::kIdent)
          continue;  // declaration or qualified member
        if (prev == "::" &&
            (ci < 2 || f.ct(ci - 2).text != "std")) {
          continue;
        }
        emit(kWallclock, t.line, t.col,
             std::string(t.text) +
                 "() reads host wall-clock state — virtual time is the "
                 "only clock simulated results may depend on");
        continue;
      }
      if (t.text == "now" && prev == "::" && ci >= 2) {
        const std::string_view clk = f.ct(ci - 2).text;
        if (clk == "steady_clock" || clk == "system_clock" ||
            clk == "high_resolution_clock") {
          emit(kWallclock, t.line, t.col,
               "std::chrono::" + std::string(clk) +
                   "::now() is host time — allowed only at annotated "
                   "bench-timing/host-provenance sites, never feeding "
                   "simulated state");
        }
      }
    }
  }

  // ---- trace-sink-guard ---------------------------------------------------

  void trace_sink_guard() {
    if (!f.is_header()) return;
    const std::string& p = f.path();
    const bool fast_path_module =
        p.rfind("src/sim/", 0) == 0 || p.rfind("src/xomp/", 0) == 0;
    if (!fast_path_module) return;
    static const std::set<std::string_view> kHooks = {
        "on_access",       "on_fetch",       "on_loop",
        "on_team",         "on_runtime_range", "on_sync",
        "on_thread_moved", "on_access_stall", "on_fetch_stall",
        "on_flush"};
    const std::size_t nc = f.code_size();
    for (std::size_t ci = 1; ci + 1 < nc; ++ci) {
      const Token& t = f.ct(ci);
      if (t.kind != Tok::kIdent || kHooks.count(t.text) == 0) continue;
      const std::string_view prev = f.ct(ci - 1).text;
      if ((prev == "." || prev == "->") && f.ct(ci + 1).text == "(") {
        emit(kTraceSinkGuard, t.line, t.col,
             "TraceSink hook '" + std::string(t.text) +
                 "' invoked from a fast-path-inlinable header — sink "
                 "call sites belong on the out-of-line reference path "
                 "only (bit-identity discipline, sim/hooks.hpp)");
      }
    }
  }

  // ---- fold-order ---------------------------------------------------------

  void fold_order() {
    const std::size_t nc = f.code_size();
    for (std::size_t ci = 0; ci + 1 < nc; ++ci) {
      if (f.ct(ci).text != "for" || f.ct(ci + 1).text != "(") continue;
      const std::size_t fp = ci + 1;
      const std::size_t fe = f.match(fp);
      if (fe >= nc) continue;
      // Split the header at top-level semicolons; a range-for has none.
      std::vector<std::size_t> semis;
      int depth = 0;
      for (std::size_t j = fp + 1; j < fe; ++j) {
        const std::string_view x = f.ct(j).text;
        if (x == "(" || x == "[" || x == "{") ++depth;
        else if (x == ")" || x == "]" || x == "}") --depth;
        else if (x == ";" && depth == 0) semis.push_back(j);
      }
      bool descending = false;
      std::string_view loop_var;
      if (semis.size() == 2) {
        for (std::size_t j = semis[1] + 1; j < fe; ++j) {
          if (f.ct(j).text == "--") {
            descending = true;
            if (j + 1 < fe && f.ct(j + 1).kind == Tok::kIdent) {
              loop_var = f.ct(j + 1).text;
            } else if (j > semis[1] + 1 &&
                       f.ct(j - 1).kind == Tok::kIdent) {
              loop_var = f.ct(j - 1).text;
            }
          }
        }
      }
      bool reversed = false;
      int rev_line = 0;
      int rev_col = 0;
      for (std::size_t j = fp + 1; j < fe; ++j) {
        if ((f.ct(j).text == "rbegin" || f.ct(j).text == "crbegin") &&
            j > fp + 1 &&
            (f.ct(j - 1).text == "." || f.ct(j - 1).text == "->")) {
          reversed = true;
          rev_line = f.ct(j).line;
          rev_col = f.ct(j).col;
        }
      }
      if (!descending && !reversed) continue;

      // Body range.
      std::size_t b0 = fe + 1;
      std::size_t b1;
      if (b0 < nc && f.ct(b0).text == "{") {
        b1 = f.match(b0);
        ++b0;
      } else {
        b1 = b0;
        int d2 = 0;
        while (b1 < nc) {
          const std::string_view x = f.ct(b1).text;
          if (x == "(" || x == "[" || x == "{") ++d2;
          else if (x == ")" || x == "]" || x == "}") --d2;
          else if (x == ";" && d2 == 0) break;
          ++b1;
        }
      }
      if (b1 >= nc) continue;

      for (std::size_t a = b0; a < b1; ++a) {
        const std::string_view x = f.ct(a).text;
        if (x != "+=" && x != "-=" && x != "*=") continue;
        // Element updates (accumulator itself indexed by the loop var)
        // are per-slot writes, not folds.
        if (a > b0 && f.ct(a - 1).text == "]") {
          const std::size_t lb = f.match(a - 1);
          if (lb < a && range_has(lb + 1, a - 1, loop_var)) continue;
        }
        // Statement end.
        std::size_t send = a + 1;
        int d3 = 0;
        while (send < b1) {
          const std::string_view y = f.ct(send).text;
          if (y == "(" || y == "[" || y == "{") ++d3;
          else if (y == ")" || y == "]" || y == "}") --d3;
          else if (y == ";" && d3 == 0) break;
          ++send;
        }
        if (reversed) {
          emit(kFoldOrder, rev_line, rev_col,
               "accumulation over a reversed range — per-rank "
               "shards must fold in ascending rank order for "
               "deterministic (bit-identical) results");
          break;
        }
        // Descending indexed loop folding shard[loop_var].
        for (std::size_t r = a + 1; r + 1 < send; ++r) {
          if (f.ct(r).kind == Tok::kIdent && f.ct(r + 1).text == "[") {
            const std::size_t e = f.match(r + 1);
            if (e < send && range_has(r + 2, e, loop_var)) {
              emit(kFoldOrder, f.ct(a).line, f.ct(a).col,
                   "reduction folds '" + std::string(f.ct(r).text) + "[" +
                       std::string(loop_var) +
                       "]' while iterating in descending order — shards "
                       "must fold in ascending rank order for deterministic "
                       "(bit-identical) results");
              a = send;
              break;
            }
          }
        }
      }
    }
  }
};

}  // namespace

const std::vector<std::string>& check_ids() {
  static const std::vector<std::string> kIds = {
      kSharedScratch, kDeterminism, kWallclock,
      kTraceSinkGuard, kFoldOrder,  kSuppression};
  return kIds;
}

LintResult run_lint(const Project& project,
                    const std::vector<std::string>& checks) {
  std::set<std::string> enabled(checks.begin(), checks.end());
  if (enabled.empty()) {
    for (const std::string& id : check_ids()) enabled.insert(id);
  }
  LintResult result;
  result.files_scanned = project.files().size();
  for (const SourceFile& f : project.files()) {
    std::vector<Finding> raw;
    FileScan scan{project, f, raw, enabled};
    scan.shared_scratch();
    scan.determinism();
    scan.wallclock();
    scan.trace_sink_guard();
    scan.fold_order();
    // Suppression hygiene: rationale is mandatory and check ids must be
    // real, otherwise the manifest rots.  These are not suppressible.
    if (enabled.count(kSuppression) != 0) {
      const std::set<std::string> known(check_ids().begin(),
                                        check_ids().end());
      for (const Suppression& sup : f.suppressions()) {
        if (sup.missing_rationale) {
          raw.push_back(Finding{kSuppression, f.path(), sup.comment_line, 1,
                                "suppression 'allow(" + sup.check +
                                    ")' is missing its rationale — append "
                                    "' -- <why this is safe>'",
                                false, {}});
        } else if (sup.check != "*" && known.count(sup.check) == 0) {
          raw.push_back(Finding{kSuppression, f.path(), sup.comment_line, 1,
                                "suppression names unknown check '" +
                                    sup.check + "'",
                                false, {}});
        }
      }
    }
    // Apply the suppression manifest.
    for (Finding& fd : raw) {
      if (fd.check == kSuppression) continue;
      if (f.suppressed(fd.check, fd.line)) {
        fd.suppressed = true;
        for (const Suppression& sup : f.suppressions()) {
          if (!sup.missing_rationale &&
              (sup.check == fd.check || sup.check == "*") &&
              (sup.file_scope || sup.effective_line == fd.line)) {
            fd.rationale = sup.rationale;
            break;
          }
        }
      }
    }
    for (Finding& fd : raw) result.findings.push_back(std::move(fd));
    for (const Suppression& sup : f.suppressions()) {
      if (!sup.used && !sup.missing_rationale) {
        result.unused.push_back(
            UnusedSuppression{f.path(), sup.comment_line, sup.check});
      }
    }
  }
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              if (a.col != b.col) return a.col < b.col;
              return a.check < b.check;
            });
  return result;
}

}  // namespace paxlint
