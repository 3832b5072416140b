#include "isa/disasm.hpp"

#include <sstream>

#include "isa/registers.hpp"

namespace issrtl::isa {

namespace {

std::string hex(u32 v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

std::string operand2(const DecodedInst& d) {
  return d.uses_imm ? std::to_string(d.simm13) : reg_name(d.rs2);
}

std::string addr_expr(const DecodedInst& d) {
  std::string s = "[";
  s += reg_name(d.rs1);
  if (d.uses_imm) {
    if (d.simm13 != 0) {
      s += d.simm13 > 0 ? " + " : " - ";
      s += std::to_string(d.simm13 > 0 ? d.simm13 : -d.simm13);
    }
  } else if (d.rs2 != 0) {
    s += " + ";
    s += reg_name(d.rs2);
  }
  s += ']';
  return s;
}

}  // namespace

std::string disassemble(const DecodedInst& d, u32 pc) {
  std::ostringstream os;
  const auto& info = opcode_info(d.opcode);
  switch (d.iclass) {
    case InstClass::kInvalid:
      os << ".word " << hex(d.raw);
      break;
    case InstClass::kSethi:
      if (d.rd == 0 && d.imm22 == 0) { os << "nop"; break; }
      os << "sethi %hi(" << hex(d.imm22 << 10) << "), " << reg_name(d.rd);
      break;
    case InstClass::kBranch:
      os << info.mnemonic << (d.annul ? ",a " : " ")
         << hex(pc + static_cast<u32>(d.disp));
      break;
    case InstClass::kCall:
      os << "call " << hex(pc + static_cast<u32>(d.disp));
      break;
    case InstClass::kLoad:
    case InstClass::kAtomic:
      os << info.mnemonic << " " << addr_expr(d) << ", " << reg_name(d.rd);
      break;
    case InstClass::kStore:
      os << info.mnemonic << " " << reg_name(d.rd) << ", " << addr_expr(d);
      break;
    case InstClass::kJmpl:
      os << "jmpl " << reg_name(d.rs1) << " + " << operand2(d) << ", "
         << reg_name(d.rd);
      break;
    case InstClass::kReadSpecial:
      os << "rd %y, " << reg_name(d.rd);
      break;
    case InstClass::kWriteSpecial:
      os << "wr " << reg_name(d.rs1) << ", " << operand2(d) << ", %y";
      break;
    case InstClass::kTrap:
      os << "ta " << static_cast<int>(d.trap_num);
      break;
    case InstClass::kFlush:
      os << "flush " << addr_expr(d);
      break;
    default:
      os << info.mnemonic << " " << reg_name(d.rs1) << ", " << operand2(d)
         << ", " << reg_name(d.rd);
      break;
  }
  return os.str();
}

std::string disassemble(u32 word, u32 pc) { return disassemble(decode(word), pc); }

}  // namespace issrtl::isa
