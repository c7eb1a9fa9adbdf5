// Shard-scheduler context hazards: per-shard planning and emission run
// under the engine's run context so cancellation reaches every shard;
// minting a fresh root inside a shard worker detaches it from the abort
// path (the watcher could never wake a blocked shard).
package fill

import "context"

type planShard struct{ id int }

func planOne(ctx context.Context, s planShard) error { return ctx.Err() }

// PlanBands is the exported entry; shards must inherit its context.
func PlanBands(ctx context.Context, shards []planShard) error {
	for _, s := range shards {
		if err := planOne(context.Background(), s); err != nil { // want "already has a context parameter"
			return err
		}
	}
	return nil
}

func planBandsDetached(shards []planShard) error {
	for _, s := range shards {
		if err := planOne(context.TODO(), s); err != nil { // want "below the public API"
			return err
		}
	}
	return nil
}

// planBandsThreaded is the clean counterpart: the run context flows into
// every per-shard call.
func planBandsThreaded(ctx context.Context, shards []planShard) error {
	for _, s := range shards {
		if err := planOne(ctx, s); err != nil {
			return err
		}
	}
	return nil
}
