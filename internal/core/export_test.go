package core

// SetRecordHook installs fn to see the kind and args of every activity
// log record as it is added, for tests in package core_test. The
// returned func removes it.
func SetRecordHook(fn func(kind string, args []any)) (restore func()) {
	recordHook.Store(&fn)
	return func() { recordHook.Store(nil) }
}
