package analysis

// All returns the full funcx-vet analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerExhaustive,
		AnalyzerClockDiscipline,
		AnalyzerMetricNames,
		AnalyzerCtxFlow,
		AnalyzerBoundedChan,
		AnalyzerDebugLog,
	}
}
