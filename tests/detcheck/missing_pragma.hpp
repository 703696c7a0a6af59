// detcheck:expect pragma-once
// A header without the include-once pragma: the finding anchors on line 1.
namespace alsflow {

int scan_count();

}  // namespace alsflow
