#include "ilir/codegen_c.hpp"

#include <cctype>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "support/logging.hpp"

namespace cortex::ilir {

namespace {

bool is_c_keyword(const std::string& s) {
  static const std::set<std::string> kw = {
      "auto",     "break",   "case",     "char",   "const",    "continue",
      "default",  "do",      "double",   "else",   "enum",     "extern",
      "float",    "for",     "goto",     "if",     "inline",   "int",
      "long",     "register", "restrict", "return", "short",   "signed",
      "sizeof",   "static",  "struct",   "switch", "typedef",  "union",
      "unsigned", "void",    "volatile", "while",  "_Bool",    "exp"};
  return kw.count(s) > 0;
}

std::string sanitize_ident(const std::string& name) {
  std::string s = name.empty() ? std::string("v") : name;
  for (char& c : s)
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) c = '_';
  if (std::isdigit(static_cast<unsigned char>(s.front()))) s.insert(0, "_");
  if (is_c_keyword(s)) s += "_";
  return s;
}

/// Exact round-trip rendering of the evaluator's double constants:
/// max_digits10 shortest form, forced to float syntax so two integral
/// literals can never trigger C integer division.
std::string float_literal(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  std::string s(buf);
  CORTEX_CHECK(s.find("inf") == std::string::npos &&
               s.find("nan") == std::string::npos)
      << "non-finite float literal in program: " << v;
  if (s.find_first_of(".e") == std::string::npos) s += ".0";
  return s;
}

/// True if the expression contains a Sum anywhere (decides whether a
/// select can stay a lazy C ternary or needs statement form).
bool contains_sum(const ra::Expr& e) {
  if (!e) return false;
  if (e->kind == ra::ExprKind::kSum) return true;
  for (const ra::Expr& a : e->args)
    if (contains_sum(a)) return true;
  return false;
}

/// True if any expression under `s` references variable `name` (an
/// over-approximation under shadowing, which only costs a harmless
/// `(void)` cast).
bool stmt_reads_var(const Stmt& s, const std::string& name) {
  bool found = false;
  visit_exprs(s, [&](const ra::Expr& e) {
    if (ra::uses_var(e, name)) found = true;
  });
  return found;
}

/// How a program buffer is materialized in the kernel.
struct BufferRef {
  enum Kind { kArena, kParam, kLin } kind = kParam;
  const Buffer* buf = nullptr;
  std::int64_t index = -1;  ///< arena slot / params[] index / lin[] index
  std::string cname;
  bool stored = false;  ///< some kStore writes it (param constness)
};

int lin_index(const std::string& name) {
  for (std::size_t i = 0; i < kNumStructureArrays; ++i)
    if (name == kStructureArrayNames[i]) return static_cast<int>(i);
  return -1;
}

int scalar_index(const std::string& name) {
  for (std::size_t i = 0; i < kNumScalars; ++i)
    if (name == kScalarNames[i]) return static_cast<int>(i);
  return -1;
}

/// Renders a Program into the fixed kernel ABI. Expression emission
/// returns C expression text; Sum reductions (and selects containing
/// them) are hoisted into statements appended to `body_` before the
/// statement that consumes their value, each with a fresh accumulator —
/// so sibling reductions can never redeclare one shared `acc`.
class Emitter {
 public:
  Emitter(const Program& p, const CodegenOptions& opts) : prog_(p) {
    reserve_fixed_names();
    build_refs(opts);
  }

  CKernelSource run(const std::string& symbol) {
    mark_stores();
    pad_ = "  ";
    if (prog_.body) emit_stmt(prog_.body);

    CKernelSource out;
    out.symbol = symbol;
    for (const auto& [name, ref] : refs_)
      if (ref.kind == BufferRef::kParam) {
        (void)name;
        out.params_order.resize(
            std::max(out.params_order.size(),
                     static_cast<std::size_t>(ref.index) + 1));
        out.params_order[static_cast<std::size_t>(ref.index)] = ref.buf->name;
      }
    out.code = assemble(symbol);
    return out;
  }

 private:
  // -- name management --------------------------------------------------------

  void reserve_fixed_names() {
    for (const char* a :
         {"arena", "slot_offsets", "params", "lin", "scalars", "cx_counters",
          "cx_tanh_rational", "cx_sigmoid_rational", "cx_relu", "cx_max_f64",
          "cx_min_f64", "cx_max_i64", "cx_min_i64"})
      taken_.insert(a);
    for (std::size_t i = 0; i < kNumScalars; ++i) taken_.insert(kScalarNames[i]);
    for (std::size_t i = 0; i < kNumStructureArrays; ++i)
      taken_.insert(kStructureArrayNames[i]);
  }

  std::string unique_name(const std::string& base) {
    std::string s = base;
    int n = 0;
    auto clashes = [&](const std::string& c) {
      if (taken_.count(c)) return true;
      for (const auto& [v, cn] : bound_) {
        (void)v;
        if (cn == c) return true;
      }
      return false;
    };
    while (clashes(s)) s = base + "_" + std::to_string(++n);
    return s;
  }

  std::string fresh(const std::string& base) {
    const std::string s = unique_name(base + std::to_string(temp_++));
    taken_.insert(s);
    return s;
  }

  // -- buffer classification --------------------------------------------------

  void build_refs(const CodegenOptions& opts) {
    std::map<std::string, std::int64_t> arena_slots;
    for (const CodegenArenaEntry& e : opts.arena) arena_slots[e.buffer] = e.slot;
    std::int64_t next_param = 0;
    for (const Buffer& b : prog_.buffers) {
      BufferRef ref;
      ref.buf = &b;
      if (b.dtype == ra::DType::kInt) {
        const int li = lin_index(b.name);
        CORTEX_CHECK(li >= 0)
            << "int buffer '" << b.name << "' is not a linearizer array";
        ref.kind = BufferRef::kLin;
        ref.index = li;
        ref.cname = b.name;  // reserved upfront, canonical
      } else if (auto it = arena_slots.find(b.name); it != arena_slots.end()) {
        CORTEX_CHECK(lin_index(b.name) < 0)
            << "float buffer '" << b.name << "' shadows a linearizer array";
        ref.kind = BufferRef::kArena;
        ref.index = it->second;
        ref.cname = unique_name(sanitize_ident(b.name));
        taken_.insert(ref.cname);
      } else {
        CORTEX_CHECK(lin_index(b.name) < 0)
            << "float buffer '" << b.name << "' shadows a linearizer array";
        ref.kind = BufferRef::kParam;
        ref.index = next_param++;
        ref.cname = unique_name(sanitize_ident(b.name));
        taken_.insert(ref.cname);
      }
      const bool inserted = refs_.emplace(b.name, ref).second;
      CORTEX_CHECK(inserted) << "duplicate buffer " << b.name;
    }
  }

  void mark_stores() {
    visit(prog_.body, [&](const Stmt& s) {
      if (s->kind != StmtKind::kStore) return;
      auto it = refs_.find(s->buffer);
      if (it != refs_.end()) it->second.stored = true;
    });
  }

  BufferRef& buffer_ref(const std::string& name) {
    auto it = refs_.find(name);
    CORTEX_CHECK(it != refs_.end()) << "undeclared buffer " << name;
    CORTEX_CHECK(bound_.find(name) == bound_.end())
        << "buffer '" << name << "' shadowed by a loop variable";
    used_buffers_.insert(name);
    return it->second;
  }

  /// Structure functions (child, words, is_leaf) read linearizer arrays
  /// the program may not declare as buffers; they still arrive via lin[].
  std::string lin_array(const char* name) {
    used_lin_.insert(name);
    return name;
  }

  std::string scalar(const std::string& name) {
    CORTEX_CHECK(scalar_index(name) >= 0)
        << "free variable '" << name << "' is not a runtime scalar";
    used_scalars_.insert(name);
    return name;
  }

  // -- static expression typing (mirrors Evaluator::Value::is_int) ------------

  bool is_int(const ra::Expr& e) {
    using ra::ExprKind;
    switch (e->kind) {
      case ExprKind::kFloatImm:
      case ExprKind::kCall:
      case ExprKind::kSum:
        return false;
      case ExprKind::kIntImm:
      case ExprKind::kVar:
      case ExprKind::kChild:
      case ExprKind::kWordOf:
      case ExprKind::kNumChildren:
      case ExprKind::kIsLeaf:
        return true;
      case ExprKind::kBinary:
        switch (e->bin) {
          case ra::BinOp::kLt:
          case ra::BinOp::kGe:
          case ra::BinOp::kEq:
            return true;
          default:
            return is_int(e->args[0]) && is_int(e->args[1]);
        }
      case ExprKind::kLoad: {
        auto it = refs_.find(e->name);
        CORTEX_CHECK(it != refs_.end()) << "undeclared buffer " << e->name;
        return it->second.buf->dtype == ra::DType::kInt;
      }
      case ExprKind::kSelect:
        // A mixed select is emitted as double (as_f round-trips both).
        return is_int(e->args[1]) && is_int(e->args[2]);
    }
    CORTEX_CHECK(false) << "unknown expr kind";
    return false;
  }

  // -- expression emission ----------------------------------------------------
  // emit() returns C text typed per is_int(); as_i()/as_f() are the
  // evaluator's coercions.

  std::string as_i(const ra::Expr& e) {
    std::string s = emit(e);
    return is_int(e) ? s : "(int64_t)(" + s + ")";
  }

  std::string as_f(const ra::Expr& e) {
    std::string s = emit(e);
    return is_int(e) ? "(double)(" + s + ")" : s;
  }

  std::string flat_index(const Buffer& buf, const std::vector<Expr>& idx) {
    CORTEX_CHECK(idx.size() == buf.shape.size())
        << "index rank " << idx.size() << " vs buffer '" << buf.name
        << "' rank " << buf.shape.size();
    CORTEX_CHECK(!idx.empty()) << "rank-0 access to " << buf.name;
    std::string flat = as_i(idx[0]);
    for (std::size_t k = 1; k < idx.size(); ++k)
      flat = "(" + flat + " * " + as_i(buf.shape[k]) + " + " + as_i(idx[k]) +
             ")";
    return flat;
  }

  std::string emit(const ra::Expr& e) {
    using ra::ExprKind;
    switch (e->kind) {
      case ExprKind::kFloatImm:
        return float_literal(e->fimm);
      case ExprKind::kIntImm:
        return std::to_string(e->iimm);
      case ExprKind::kVar: {
        auto it = bound_.find(e->name);
        if (it != bound_.end()) return it->second;
        return scalar(e->name);
      }
      case ExprKind::kBinary:
        return emit_binary(e);
      case ExprKind::kCall: {
        const std::string x = as_f(e->args[0]);
        switch (e->fn) {
          case ra::CallFn::kTanh:
            return "(double)cx_tanh_rational((float)(" + x + "))";
          case ra::CallFn::kSigmoid:
            return "(double)cx_sigmoid_rational((float)(" + x + "))";
          case ra::CallFn::kRelu:
            return "cx_relu(" + x + ")";
          case ra::CallFn::kExp:
            return "exp(" + x + ")";
        }
        CORTEX_CHECK(false) << "unknown call";
        return "";
      }
      case ExprKind::kLoad: {
        const BufferRef& ref = buffer_ref(e->name);
        if (ref.kind == BufferRef::kLin) {
          CORTEX_CHECK(e->args.size() == 1)
              << "linearizer array " << e->name << " must be rank-1";
          return "(int64_t)" + ref.cname + "[" + as_i(e->args[0]) + "]";
        }
        return "(double)" + ref.cname + "[" + flat_index(*ref.buf, e->args) +
               "]";
      }
      case ExprKind::kSum:
        return emit_sum(e);
      case ExprKind::kChild: {
        const std::string n = as_i(e->args[0]);
        const std::string k = as_i(e->args[1]);
        return "(int64_t)" + lin_array("child_ids") + "[(int64_t)" +
               lin_array("child_offsets") + "[" + n + "] + " + k + "]";
      }
      case ExprKind::kWordOf:
        return "(int64_t)" + lin_array("words") + "[" + as_i(e->args[0]) + "]";
      case ExprKind::kNumChildren: {
        const std::string n = as_i(e->args[0]);
        const std::string off = lin_array("child_offsets");
        return "((int64_t)" + off + "[" + n + " + 1] - (int64_t)" + off + "[" +
               n + "])";
      }
      case ExprKind::kIsLeaf:
        // Appendix-B numbering: a leaf check is one integer comparison
        // (the evaluator compares the ids as int64, not as double).
        return "(" + as_i(e->args[0]) + " >= " + scalar("first_leaf_id") + ")";
      case ExprKind::kSelect:
        return emit_select(e);
    }
    CORTEX_CHECK(false) << "unknown expr kind";
    return "";
  }

  std::string emit_binary(const ra::Expr& e) {
    const ra::Expr& a = e->args[0];
    const ra::Expr& b = e->args[1];
    const bool ints = is_int(a) && is_int(b);
    switch (e->bin) {
      case ra::BinOp::kAdd:
        return ints ? "(" + emit(a) + " + " + emit(b) + ")"
                    : "(" + as_f(a) + " + " + as_f(b) + ")";
      case ra::BinOp::kSub:
        return ints ? "(" + emit(a) + " - " + emit(b) + ")"
                    : "(" + as_f(a) + " - " + as_f(b) + ")";
      case ra::BinOp::kMul:
        return ints ? "(" + emit(a) + " * " + emit(b) + ")"
                    : "(" + as_f(a) + " * " + as_f(b) + ")";
      case ra::BinOp::kDiv:
        return ints ? "(" + emit(a) + " / " + emit(b) + ")"
                    : "(" + as_f(a) + " / " + as_f(b) + ")";
      case ra::BinOp::kMax:
        return ints ? "cx_max_i64(" + emit(a) + ", " + emit(b) + ")"
                    : "cx_max_f64(" + as_f(a) + ", " + as_f(b) + ")";
      case ra::BinOp::kMin:
        return ints ? "cx_min_i64(" + emit(a) + ", " + emit(b) + ")"
                    : "cx_min_f64(" + as_f(a) + ", " + as_f(b) + ")";
      // Comparisons always compare as double (Evaluator::eval kBinary).
      case ra::BinOp::kLt:
        return "(" + as_f(a) + " < " + as_f(b) + ")";
      case ra::BinOp::kGe:
        return "(" + as_f(a) + " >= " + as_f(b) + ")";
      case ra::BinOp::kEq:
        return "(" + as_f(a) + " == " + as_f(b) + ")";
    }
    CORTEX_CHECK(false) << "unknown binop";
    return "";
  }

  /// Hoists a reduction into a fresh accumulator loop ahead of the
  /// consuming statement and returns the accumulator's name.
  std::string emit_sum(const ra::Expr& e) {
    // Extent is evaluated outside the axis binding (the evaluator reads
    // it before the loop installs the axis variable).
    const std::string extent = as_i(e->args[0]);
    const std::string acc = fresh("cx_acc");
    line("double " + acc + " = 0.0;");
    const std::string axis = bind(e->name);
    line("for (int64_t " + axis + " = 0; " + axis + " < " + extent + "; ++" +
         axis + ") {");
    push();
    const std::string body = as_f(e->args[1]);
    line(acc + " += " + body + ";");
    pop();
    line("}");
    unbind(e->name);
    return acc;
  }

  /// A C ternary is as lazy as the evaluator's select, so plain selects
  /// stay expressions; a Sum inside a branch forces statement form so the
  /// hoisted loop only runs when its branch is taken.
  std::string emit_select(const ra::Expr& e) {
    const bool int_result = is_int(e);
    auto branch = [&](const ra::Expr& b) {
      return int_result ? as_i(b) : as_f(b);
    };
    if (!contains_sum(e->args[1]) && !contains_sum(e->args[2])) {
      return "(" + as_i(e->args[0]) + " != 0 ? " + branch(e->args[1]) +
             " : " + branch(e->args[2]) + ")";
    }
    const std::string tmp = fresh("cx_sel");
    line(std::string(int_result ? "int64_t " : "double ") + tmp + ";");
    line("if (" + as_i(e->args[0]) + " != 0) {");
    push();
    line(tmp + " = " + branch(e->args[1]) + ";");
    pop();
    line("} else {");
    push();
    line(tmp + " = " + branch(e->args[2]) + ";");
    pop();
    line("}");
    return tmp;
  }

  // -- statement emission -----------------------------------------------------

  void line(const std::string& s) { body_ += pad_ + s + "\n"; }
  void raw_line(const std::string& s) { body_ += s + "\n"; }
  void push() { pad_ += "  "; }
  void pop() { pad_.resize(pad_.size() - 2); }

  std::string bind(const std::string& var) {
    const std::string cname = unique_name(sanitize_ident(var));
    auto it = bound_.find(var);
    if (it != bound_.end()) shadow_stack_.push_back({var, it->second});
    bound_[var] = cname;
    return cname;
  }

  void unbind(const std::string& var) {
    if (!shadow_stack_.empty() && shadow_stack_.back().first == var) {
      bound_[var] = shadow_stack_.back().second;
      shadow_stack_.pop_back();
    } else {
      bound_.erase(var);
    }
  }

  void emit_stmt(const Stmt& s) {
    switch (s->kind) {
      case StmtKind::kFor:
        emit_for(s);
        break;
      case StmtKind::kLet: {
        line("{");
        push();
        const std::string value = as_i(s->value);
        const std::string v = bind(s->var);
        line("const int64_t " + v + " = " + value + ";");
        if (!stmt_reads_var(s->body, s->var)) line("(void)" + v + ";");
        emit_stmt(s->body);
        unbind(s->var);
        pop();
        line("}");
        break;
      }
      case StmtKind::kStore:
        emit_store(*s);
        break;
      case StmtKind::kSeq:
        for (const Stmt& t : s->stmts) emit_stmt(t);
        break;
      case StmtKind::kIf: {
        const std::string cond = as_i(s->cond);
        line("if (" + cond + " != 0) {");
        push();
        emit_stmt(s->then_s);
        pop();
        if (s->else_s) {
          line("} else {");
          push();
          emit_stmt(s->else_s);
          pop();
        }
        line("}");
        break;
      }
      case StmtKind::kBarrier:
        line("++cx_counters[0];");
        break;
      case StmtKind::kComment: {
        std::string text = s->text;
        std::size_t p;
        while ((p = text.find("*/")) != std::string::npos)
          text.replace(p, 2, "* /");
        line("/* " + text + " */");
        break;
      }
    }
  }

  void emit_for(const Stmt& s) {
    // Hoisted sums in min/extent must land before the loop pragma.
    const bool zero_min =
        s->min->kind == ra::ExprKind::kIntImm && s->min->iimm == 0;
    const std::string mn = zero_min ? "0" : as_i(s->min);
    const std::string ex = as_i(s->extent);
    if (s->fkind == ForKind::kUnrolled &&
        s->extent->kind == ra::ExprKind::kIntImm)
      line("#pragma GCC unroll " + std::to_string(s->extent->iimm));
    if (s->fkind == ForKind::kVectorized) {
      raw_line("#if defined(_OPENMP)");
      line("#pragma omp simd");
      raw_line("#endif");
    }
    if (s->fkind == ForKind::kParallel)
      line("/* parallel across device lanes */");
    const std::string v = bind(s->var);
    const std::string bound = zero_min ? ex : mn + " + " + ex;
    line("for (int64_t " + v + " = " + mn + "; " + v + " < " + bound +
         "; ++" + v + ") {");
    push();
    emit_stmt(s->body);
    pop();
    line("}");
    unbind(s->var);
  }

  void emit_store(const StmtNode& st) {
    const BufferRef& ref = buffer_ref(st.buffer);
    CORTEX_CHECK(ref.kind != BufferRef::kLin)
        << "store to linearizer array " << st.buffer;
    // Evaluation order matches the evaluator: indices, then value.
    const std::string flat = flat_index(*ref.buf, st.indices);
    const std::string value = as_f(st.value);
    line(ref.cname + "[" + flat + "] = (float)(" + value + ");");
  }

  // -- final assembly ---------------------------------------------------------

  std::string scope_note(MemScope scope) const {
    switch (scope) {
      case MemScope::kGlobal:
        return "global memory";
      case MemScope::kShared:
        return "scratchpad/shared memory";
      case MemScope::kRegister:
        return "registers, persistent";
    }
    return "?";
  }

  std::string assemble(const std::string& symbol) {
    std::ostringstream os;
    os << "/* generated by cortex ILIR codegen (cortex-jit-abi 1) */\n";
    os << "/* program: " << prog_.name << " */\n";
    os << "#include <math.h>\n";
    os << "#include <stdint.h>\n\n";
    // The evaluator's float semantics, inlined so the kernel is
    // self-contained: rational tanh/sigmoid (tensor/activations.hpp,
    // same branchless body) in float, relu and max/min in double with
    // std::max/std::min operand order, integer max/min on int64.
    os << "static inline float cx_tanh_rational(float x) {\n"
          "  const float x2 = x * x;\n"
          "  const float num =\n"
          "      x * (135135.0f + x2 * (17325.0f + x2 * (378.0f + x2)));\n"
          "  const float den =\n"
          "      135135.0f + x2 * (62370.0f + x2 * (3150.0f + x2 * "
          "28.0f));\n"
          "  const float r = num / den;\n"
          "  return x > 5.0f ? 1.0f : (x < -5.0f ? -1.0f : r);\n"
          "}\n"
          "static inline float cx_sigmoid_rational(float x) {\n"
          "  return 0.5f * (1.0f + cx_tanh_rational(0.5f * x));\n"
          "}\n"
          "static inline double cx_relu(double x) { return x > 0 ? x : 0; "
          "}\n"
          "static inline double cx_max_f64(double a, double b) {\n"
          "  return a < b ? b : a;\n"
          "}\n"
          "static inline double cx_min_f64(double a, double b) {\n"
          "  return b < a ? b : a;\n"
          "}\n"
          "static inline int64_t cx_max_i64(int64_t a, int64_t b) {\n"
          "  return a < b ? b : a;\n"
          "}\n"
          "static inline int64_t cx_min_i64(int64_t a, int64_t b) {\n"
          "  return b < a ? b : a;\n"
          "}\n\n";
    // Buffer map: one comment line per program buffer and its binding.
    for (const Buffer& b : prog_.buffers) {
      const BufferRef& ref = refs_.at(b.name);
      os << "/* " << b.name << "(";
      for (std::size_t i = 0; i < b.shape.size(); ++i) {
        if (i) os << ",";
        os << ra::to_string(b.shape[i]);
      }
      os << ") [" << scope_note(b.scope) << "] <- ";
      switch (ref.kind) {
        case BufferRef::kArena:
          os << "arena slot " << ref.index;
          break;
        case BufferRef::kParam:
          os << "params[" << ref.index << "]";
          break;
        case BufferRef::kLin:
          os << "lin[" << ref.index << "]";
          break;
      }
      os << " */\n";
    }
    os << "\nvoid " << symbol
       << "(float* arena, const int64_t* slot_offsets,\n"
          "    float* const* params, const int32_t* const* lin,\n"
          "    const int64_t* scalars, int64_t* cx_counters) {\n";
    os << "  (void)arena;\n  (void)slot_offsets;\n  (void)params;\n"
          "  (void)lin;\n  (void)scalars;\n  (void)cx_counters;\n";
    for (std::size_t i = 0; i < kNumScalars; ++i)
      if (used_scalars_.count(kScalarNames[i]))
        os << "  const int64_t " << kScalarNames[i] << " = scalars[" << i
           << "];\n";
    // Linearizer arrays: declared program buffers plus the arrays the
    // structure functions (child/words/is_leaf) touch implicitly.
    for (std::size_t i = 0; i < kNumStructureArrays; ++i) {
      const char* name = kStructureArrayNames[i];
      const bool as_buffer =
          refs_.count(name) > 0 && used_buffers_.count(name) > 0;
      if (as_buffer || used_lin_.count(name))
        os << "  const int32_t* " << name << " = lin[" << i << "];\n";
    }
    for (const Buffer& b : prog_.buffers) {
      if (used_buffers_.count(b.name) == 0) continue;
      const BufferRef& ref = refs_.at(b.name);
      if (ref.kind == BufferRef::kArena) {
        // Slot offsets are bytes from the arena base, 64-byte aligned
        // (exec::resolve_arena), hence exactly divisible by 4.
        os << "  float* " << ref.cname << " = arena + slot_offsets["
           << ref.index << "] / 4;\n";
      } else if (ref.kind == BufferRef::kParam) {
        os << "  " << (ref.stored ? "float* " : "const float* ") << ref.cname
           << " = params[" << ref.index << "];\n";
      }
    }
    os << body_;
    os << "}\n";
    return os.str();
  }

  const Program& prog_;
  std::map<std::string, BufferRef> refs_;
  std::set<std::string> taken_;
  std::map<std::string, std::string> bound_;  // IR var -> C name
  std::vector<std::pair<std::string, std::string>> shadow_stack_;
  std::set<std::string> used_buffers_;
  std::set<std::string> used_scalars_;
  std::set<std::string> used_lin_;
  std::string body_;
  std::string pad_;
  int temp_ = 0;
};

}  // namespace

CKernelSource codegen_c_kernel(const Program& program,
                               const CodegenOptions& options) {
  std::string symbol = options.symbol;
  if (symbol.empty())
    symbol = sanitize_ident(program.name.empty() ? std::string("cortex_kernel")
                                                 : program.name);
  Emitter em(program, options);
  return em.run(symbol);
}

std::string codegen_c(const Program& p) {
  return codegen_c_kernel(p, CodegenOptions{}).code;
}

}  // namespace cortex::ilir
