// Emit sites: ("net", "delivery") has a selector, ("net", "retired") has
// none, and a non-literal kind is not an emit site at all.
void f() { ev.component = "net"; ev.kind = "delivery"; }
void g() {
  ev.component = "net";
  ev.kind = "retired";  // detcheck:expect event-vocab
}
void h() { entry.kind = ev.kind; }
